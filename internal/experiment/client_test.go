package experiment

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/codec"
)

// record is one framed packet a stub server streams.
type record struct {
	idx  int
	data []byte
}

func inOrder(pkts [][]byte) []record {
	recs := make([]record, len(pkts))
	for i, p := range pkts {
		recs[i] = record{i, p}
	}
	return recs
}

// stubStream answers every /encode with the given records, then cuts
// the last cut bytes off the body and, when errTrailer is set, sends it
// as the X-Vcodec-Error trailer.
func stubStream(t *testing.T, recs []record, cut int, errTrailer string) http.HandlerFunc {
	var buf bytes.Buffer
	pw := codec.NewPacketWriter(&buf)
	for _, r := range recs {
		if err := pw.WritePacket(r.idx, r.data); err != nil {
			t.Fatal(err)
		}
	}
	body := buf.Bytes()[:buf.Len()-cut]
	return func(w http.ResponseWriter, r *http.Request) {
		io.Copy(io.Discard, r.Body)
		w.Header().Set("Trailer", "X-Vcodec-Error")
		w.Write(body)
		if errTrailer != "" {
			w.Header().Set("X-Vcodec-Error", errTrailer)
		}
	}
}

// TestRunSessionOutcomes pins the client's classification: only a clean
// end carrying every frame in index order (byte-identical to the
// reference when one is given) completes; a loud failure is explicit; a
// clean face on anything else is a truncation.
func TestRunSessionOutcomes(t *testing.T) {
	ref := [][]byte{[]byte("header"), []byte("frame 1"), []byte("frame 2"), []byte("frame 3")}
	altered := append([][]byte(nil), ref...)
	altered[2] = []byte("frame 2, altered")
	swapped := []record{{0, ref[0]}, {2, ref[2]}, {1, ref[1]}, {3, ref[3]}}

	for _, tc := range []struct {
		name       string
		recs       []record
		cut        int
		errTrailer string
		ref        [][]byte
		want       outcome
	}{
		{"complete", inOrder(ref), 0, "", ref, completed},
		{"complete without reference", inOrder(ref), 0, "", nil, completed},
		{"short clean stream", inOrder(ref[:3]), 0, "", nil, truncated},
		{"short clean stream against reference", inOrder(ref[:3]), 0, "", ref, truncated},
		{"error trailer", inOrder(ref[:2]), 0, "backend lost", ref, explicitFail},
		{"altered packet", inOrder(altered), 0, "", ref, truncated},
		{"out-of-order index", swapped, 0, "", nil, truncated},
		{"record cut mid-read", inOrder(ref), 2, "", nil, explicitFail},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewServer(stubStream(t, tc.recs, tc.cut, tc.errTrailer))
			defer ts.Close()
			s := runSession(ts.Client(), session{url: ts.URL + "/encode", frames: 3, ref: tc.ref})
			if s.outcome != tc.want {
				t.Fatalf("outcome %d (err %v), want %d", s.outcome, s.err, tc.want)
			}
			if (s.err == nil) != (tc.want == completed) {
				t.Errorf("outcome %d with err %v", s.outcome, s.err)
			}
			if tc.want == completed {
				if s.frames != 3 || len(s.frameGaps) != 2 || s.firstPacket <= 0 || s.attempts != 1 {
					t.Errorf("frames %d, gaps %d, first packet %v, attempts %d",
						s.frames, len(s.frameGaps), s.firstPacket, s.attempts)
				}
			}
		})
	}
}

// TestRunSessionRetriesAfter503 pins the admission side of the client: a
// 503 fails the session explicitly unless it may re-submit, and a
// re-submitted session that then streams completes. The stub refuses
// only the first submission after each reset.
func TestRunSessionRetriesAfter503(t *testing.T) {
	ref := [][]byte{[]byte("header"), []byte("frame 1")}
	stream := stubStream(t, inOrder(ref), 0, "")
	var calls atomic.Int32
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			io.Copy(io.Discard, r.Body)
			http.Error(w, "busy", http.StatusServiceUnavailable)
			return
		}
		stream(w, r)
	}))
	defer ts.Close()

	req := session{url: ts.URL + "/encode", frames: 1, ref: ref}
	if s := runSession(ts.Client(), req); s.outcome != explicitFail || s.retries503 != 0 {
		t.Fatalf("without retries: outcome %d, %d retries (err %v)", s.outcome, s.retries503, s.err)
	}
	calls.Store(0)
	req.retries = 1
	if s := runSession(ts.Client(), req); s.outcome != completed || s.retries503 != 1 {
		t.Fatalf("with retries: outcome %d, %d retries (err %v)", s.outcome, s.retries503, s.err)
	}
}
