// Package repro is a from-scratch Go reproduction of "A High Quality/Low
// Computational Cost Technique for Block Matching Motion Estimation"
// (López, Callicó, López, Sarmiento — DATE 2005): the ACBM adaptive-cost
// motion estimation algorithm, the full/predictive block-matching
// algorithms it hybridises, an H.263-style codec substrate, synthetic
// stand-ins for the paper's test sequences, and harnesses that regenerate
// every table and figure of the evaluation.
//
// The library lives under internal/; runnable entry points are the examples/ programs and the
// cmd/acbmbench, cmd/mvstudy, cmd/seqgen, cmd/vcodec, cmd/vcodecd and
// cmd/vload tools. The benchmarks in bench_test.go regenerate the paper's
// Table 1 and Figures 4-6.
//
// # Performance architecture
//
// The encode hot path is optimised at several layers, none of which
// change a single output bit (the golden bitstream tests and the parallel
// equivalence tests in internal/codec pin this):
//
//   - internal/frame pads every reference/reconstruction plane with a
//     replicated apron sized to the motion range plus the half-pel margin
//     (padded stride, Pix windowed into the padded buffer). The apron is
//     replicated exactly once per frame, when a reconstruction becomes
//     the prediction reference (refreshReference, after deblocking), so
//     every position a legal candidate or a chroma-derived vector can
//     reach is backed by real edge-replicated memory and no hot loop
//     branches on the frame border.
//   - The half-pel view (frame.Interpolated) is phase-split and lazily
//     materialised: the integer phase is the source plane itself, and the
//     b/c/d half-pel phases live in contiguous per-phase planes computed
//     tile by tile (frame.TileSize² samples) on first touch, guarded by
//     an atomic per-tile claim state. Wavefront workers first-touching
//     the same tile are race-clean — one claims and fills (the fill is
//     idempotent: a pure function of the source), the rest spin until the
//     fill is published; nothing may read a tile's samples except through
//     the claiming protocol (At/Block/PhaseRect). Output bits cannot
//     change because lazily computed samples are byte-equal to the eager
//     grid (differential tests pin this) and SAD probes/compensation read
//     the same values either way, in the same order.
//   - internal/metrics runs the SAD family through a runtime-dispatched
//     kernel table with four tiers: scalar (the differential-test
//     reference), SWAR (8 pixels per uint64 load, split into 16-bit
//     lanes), and on amd64 two Go-assembly tiers — SSE2 (PSADBW sums 16
//     absolute differences per instruction into qword lanes; PAVGB is
//     the exact H.263 (a+b+1)>>1 for straight half-pel phases; the
//     diagonal (a+b+c+d+2)>>2 widens to words because no PAVGB
//     composition reproduces its rounding) and AVX2 (32-pixel rows per
//     VPSADBW step, 16-wide macroblocks packed two rows per YMM
//     register). CPUID feature detection (OSXSAVE + XGETBV before any
//     AVX2 claim) picks the best tier at init; VCODEC_SAD_KERNEL=
//     scalar|swar|sse2|avx2 overrides it, and SetKernelISA swaps tiers
//     at runtime for tests. The dispatch contract is that every tier is
//     bit-identical — SADCapped's per-row early-termination values
//     included — so the active ISA can never change an encoded bit,
//     only ns/frame; the per-ISA differential+fuzz suite, the encoder
//     bitstream-identity test, and the bench-smoke dispatch probe all
//     pin this. Half-pel candidates are evaluated by fused kernels
//     (SADHalfPelPlane, and the SADHalfPelRing batch that scores all 8
//     neighbour phases in one pass) that apply the H.263 bilinear
//     rounding inside the difference loop, directly against the integer
//     reference plane: searcher refinement never materialises half-pel
//     storage at all, so the tiles that do get filled are only those
//     motion compensation actually lands on — and full-pel compensation
//     (every skip block, most chroma vectors) copies plane rows without
//     touching the half-pel substrate either.
//   - Reconstruction frames, half-pel phase planes and their buffers
//     recycle through size-bucketed pools (one bucket per exact
//     dimensions × apron class), so concurrent vcodecd sessions at mixed
//     resolutions stop thrashing each other's buffers. A reference frame
//     is retired to its pool at the frame hand-off — the first point
//     where both of its readers (the next frame's analysis and the
//     previous frame's PSNR statistics) are provably done; the steady
//     state is ~10 heap allocations per encoded frame, and `make
//     bench-smoke` fails if the pinned ceiling regresses.
//   - search.FSBM is one batched, bound-pruned scan per block. The ±p
//     window is clipped once to the legal rectangle (u ∈ [−BX,
//     Ref.W−W−BX], likewise v), and one kernel call (metrics.ScanSpiral)
//     visits its candidates centre-outward ("spiral": ascending L1, ties
//     in raster order). Because L1 never decreases along the spiral,
//     better()'s tie-break toward the shorter vector reduces to a strict
//     SAD < minimum, so the winner is identical to a raster scan's.
//     Before the scan, one more kernel call (metrics.BoundGrid) computes
//     the multilevel successive-elimination bound of every candidate,
//     LB(u, v) = Σ_y |C_y − S(x+u, y+v+y)| ≤ SAD (Li & Salari; Gao,
//     Duanmu & Zou): C_y sums current-block row y, S is a 16-wide
//     reference row sum, and each term is |Σa−Σb| ≤ Σ|a−b|. Bounds are
//     uint16 with saturating adds, which can only lower them. A candidate
//     whose bound is ≥ the running minimum cannot be strictly better and
//     is skipped; the rest run the capped SAD with the minimum as cap.
//     Result.Points stays the Table 1 count of candidates considered
//     (every legal one), so Table 1 and every golden are unchanged;
//     Result.Evaluated (summed into core.Stats.Evaluated, reported by
//     `acbmbench -experiment speed`) counts the candidates whose SAD
//     kernel ran — on Foreman CIF Qp 16 about 38% of them. The row sums are
//     a lazily filled phase of the reference view frame.Interpolated
//     (RowSums): tiles fill on first touch under the half-pel phases'
//     claim protocol and the phase is pooled with the view, so intra
//     frames, the decoder and rungs that never full-search never pay for
//     it. The Fig. 4 study (Input.Collect) and PixelDecimation run the
//     same window and order unpruned, scoring every candidate exactly.
//   - internal/bitstream runs word-at-a-time: the Writer gathers bits in
//     a 64-bit accumulator and the entropy layer packs whole syntax
//     elements — Exp-Golomb codes, (run, level, last) TCOEF events, MVD
//     pairs — into single WriteBits calls. The original per-bit engine is
//     kept as the differential/fuzz-test reference.
//   - internal/dct restructures the separable float DCT around hoisted
//     row conversion and contiguous basis tables, with a DC-only inverse
//     fast path; every reordering preserves the reference kernels'
//     floating-point operation order, so int32(math.Round) outputs are
//     bit-identical (enforced by differential tests against the kept
//     reference kernels). All-zero residual blocks skip the transform and
//     quantiser entirely, and uncoded blocks reconstruct by copying their
//     prediction — exact by construction.
//   - internal/codec analyses macroblocks on a wavefront worker pool:
//     motion estimation, mode decision, transform/quantisation and
//     reconstruction are scheduled per anti-diagonal d = x + 2y, because
//     the predictive searchers read only the left/up-left/up/up-right
//     motion-field neighbours. One driver runs that schedule on a
//     codec.Pool — a frame-private Pool of codec.Config.Workers, or the
//     caller's shared Config.Pool — and Workers=1 keeps the sequential
//     raster loop as the reference. Each running task borrows a forked
//     searcher (search.Forker; core.ACBM is not concurrency-safe and
//     merges its stats additively in Join), scratch is recycled through
//     sync.Pools, and entropy coding stays serial — bitstreams are
//     bit-identical for every worker count and pool.
//   - codec.Config.Pipeline (EncodeSequence, EncodeStream) overlaps
//     the serial entropy coding of frame n with the analysis of frame
//     n+1 on one private phase-2 writer shared by both drivers: analysis of n+1 needs only frame n's reconstruction and motion
//     field, both final when frame n's analysis ends, while the entropy
//     coder — whose (arithmetic) state spans frames — consumes jobs
//     strictly in frame order on one writer goroutine. One frame is in
//     flight; output stays byte-identical for every worker count.
//   - Rate and complexity control are frame-lag controllers that compose
//     with all of the above instead of forcing the encoder serial. The
//     TargetKbps quantiser servo decides frame n+1's Qp at frame n's
//     hand-off — from the actual sizes of frames 0..n-1 plus a predicted
//     size for the frame in flight (bits-per-coefficient model over the
//     worker-invariant analysis results) — and corrects the prediction
//     one frame later. core.Budgeted freezes its α/γ thresholds at frame
//     start, accounts consumed search points per worker fork, merges
//     them additively in Join and servos once per frame. Both therefore
//     keep the wavefront, the pipeline and the shared pool fully
//     parallel, with bitstreams pinned byte-identical across Workers ×
//     Pipeline × Pool by golden -race tests; `make bench-rate` writes
//     BENCH_rate.json (kbps tracking error, ns/frame per mode).
//
// `make bench-speed` (or `acbmbench -experiment speed -json
// BENCH_speed.json`) records the encoder's speed trajectory —
// ns/frame, fps, the analysis/entropy phase split, points/block
// (considered) next to evaluated/block, allocs/frame and the half-pel
// bytes actually materialised per frame — across the full GOMAXPROCS ×
// workers × pipeline matrix, per searcher.
// Each point carries the GOMAXPROCS and kernel ISA it ran under, and the
// artifact embeds the host (CPU model, core count, registered kernel
// tiers), so a number is never divorced from the machine that produced
// it. BENCH_ratchet.json pins per-searcher serial ns/frame baselines;
// `make bench-smoke` re-measures and fails CI past a tolerance band
// (widened automatically on a different CPU), and `make ratchet-pin`
// re-pins after a deliberate perf change. For ad-hoc investigation,
// `acbmbench -cpuprofile/-memprofile` write pprof profiles of any
// experiment, and `vcodecd -pprof addr` serves net/http/pprof for live
// sessions.
//
// # Serving architecture
//
// On top of the engine sits an encode-as-a-service layer, the
// "variable bandwidth channel" deployment the paper targets:
//
//   - codec.EncodeStream is the streaming session API: frames in one at
//     a time, each finished frame out immediately as an independently
//     parseable packet (first-byte latency of one frame, not one
//     sequence). It reuses the analyzeFrameJob/writeFrameBody split and
//     the pipeline overlap; a slow consumer throttles the encode (one
//     frame in flight behind a blocked emit) instead of growing a queue.
//     codec.EncodePackets is its batch wrapper, and the uvarint
//     record framing (codec.PacketWriter/PacketReader) carries packet
//     streams over files and HTTP alike — with explicit indices, so a
//     lossy channel's drops are visible and concealable.
//   - codec.Pool is the multi-session scheduler's substrate: one
//     machine-sized analysis worker pool shared by every concurrent
//     session (Config.Pool replaces per-session Config.Workers), with
//     sessions interleaving at macroblock granularity on a FIFO queue —
//     fair-share without oversubscription, bitstreams still
//     bit-identical to the sequential encoder.
//   - internal/server (cmd/vcodecd) serves POST /encode: chunked Y4M
//     upload in, flushed packet records out, session stats in HTTP
//     trailers; admission control (session cap + bounded queue, 503
//     beyond), /healthz and /metrics (sessions, frames/s, per-phase
//     latency), and graceful SIGTERM drain that completes in-flight
//     streams while rejecting new ones.
//   - cmd/vload is the load generator: M concurrent sessions across a
//     sweep of session counts and one or more endpoints (comma-separated
//     -url round-robins), reporting aggregate throughput plus
//     first-packet and per-frame latency percentiles, optionally
//     byte-verifying the served stream against the offline encoder and
//     optionally honoring 503 Retry-After (-retry-after).
//     `make bench-serve` writes the artifact (BENCH_serve.json) and
//     `make serve-smoke` gates CI on boot → verified burst → clean
//     drain. See examples/serve for the walkthrough.
//   - internal/gateway (cmd/vcodec-gateway) makes N vcodecd backends one
//     system: health-aware least-loaded routing off each backend's
//     /healthz + /metrics, bounded retries with capped-exponential
//     jittered backoff, per-backend circuit breakers, and drain-aware
//     rebalancing. The delivery contract is commit-point retry: a
//     session may be re-dispatched (upload replayed from a buffer) only
//     while zero response bytes have reached the client; after the first
//     byte, a backend failure surfaces as an explicit X-Vcodec-Error
//     trailer — never a truncated stream with a 200. The gateway
//     re-exposes /healthz and /metrics (per-backend breaker/routing
//     state) and drains gracefully on SIGTERM, gateway before backends.
//   - internal/gateway/chaos is the fault injector behind the cluster
//     benchmark: TCP proxies in front of each backend inject latency,
//     stalls, connection resets and mid-stream kills. `vload -chaos`
//     (make bench-cluster → BENCH_cluster.json) runs the named scenarios
//     — baseline, degraded-latency, backend-crash, partition, high-load
//     — against a self-hosted gateway topology with every session
//     byte-verified end to end, and `make cluster-smoke` gates CI on
//     boot → verified burst → kill a backend mid-run → still-verified
//     burst → clean drain.
//   - internal/server/qos.go closes the loop under overload: a
//     controller ticks every Config.QosInterval, folds per-phase
//     latency EWMAs, queue depth and session counts into one load
//     score, and steps sessions down an explicit degradation ladder —
//     Qp up, ACBM swapped for the cheap PBM searcher at the next intra
//     boundary, complexity budget shrunk — instead of letting latency
//     grow without bound; hysteresis (consecutive calm ticks, a dwell
//     time, and a cost projection) restores quality without
//     oscillating. Actuations apply at frame hand-off on the session
//     goroutine, so every stream stays deterministic under Workers ×
//     Pipeline × Pool; a session's actual level travels in the
//     X-Vcodec-Qos-Level/-Transitions trailers. ?priority=batch
//     sessions degrade one level deeper and are scheduled behind live
//     work (with an anti-starvation share); ?qoslevel=N pins a session
//     at a fixed rung, exempt from the controller and byte-identical to
//     the offline encoder under server.ApplyQosLevel — the hook the
//     verified benchmarks use. Admission 503s scale Retry-After with
//     queue depth and degradation level, the gateway's poller prefers
//     less-degraded backends on load ties, and `vload -qos` (make
//     bench-qos → BENCH_qos.json) prices each rung offline (PSNR, kbps,
//     encode time) then ramps mixed-priority sessions past saturation —
//     zero truncated streams, full quality restored after the ramp;
//     `make qos-smoke` gates CI on the same contract.
//   - internal/obs is the always-on flight recorder behind the serving
//     layer's observability: every session gets a trace ID (minted at
//     the gateway — or accepted from the client's X-Vcodec-Trace header
//     — propagated to the backend and echoed in both sides' trailers)
//     and a lock-free per-frame event ring recording each frame's phase
//     breakdown — Y4M read, pool-queue wait, max preemption stall,
//     analysis, entropy, emit — plus bits, Qp, QoS level and actuation
//     marks, written from the existing phase boundaries via the
//     codec.Config.Observer hook. The recorder observes and never
//     actuates: byte-identity and the per-frame allocation ceiling hold
//     with it on, and `make bench-smoke` guards its overhead. Exposure:
//     log-bucketed latency histograms on both /metrics endpoints
//     (vcodecd per-phase, gateway route/relay-gap), /debug/vcodec/
//     sessions + trace?id= + qos JSON endpoints (the gateway proxies
//     trace lookups fleet-wide), and pprof labels (vcodec_session/
//     priority/searcher) on session goroutines so live profiles slice
//     by session. vload names each point's slowest session by trace ID
//     and dumps its timeline; `make obs-smoke` gates CI on burst →
//     fetch-trace-by-ID → timeline-matches-stream → clean drain.
//   - codec.EncodeLadder (vcodecd /encode?ladder=WxH@kbps,..., vcodec
//     encode -ladder) is the simulcast ABR path: one upload fans out to
//     N renditions that share ingest and the 2:1 downscale chain
//     (frame.Downscale — exact box filter, SWAR fast path pinned to the
//     scalar reference by differential+fuzz tests, pooled outputs).
//     Each rung is a plain EncodeStream fed by that chain; rungs encode
//     concurrently, one goroutine per rung chained by cap-1 channels
//     with a one-frame lag. No rung reads another's encoder state, so
//     rung r is byte-identical to EncodePackets of the source
//     downscaled r times, every rung is independently decodable, and
//     the whole ladder is byte-identical across Workers × Pipeline ×
//     Pool (pinned under -race). Per-rung TargetKbps reuses the
//     frame-lag rate controller unchanged. On the
//     wire, sessions interleave uvarint (rung, index, length, payload)
//     records; `vcodec ladder-split` demultiplexes a saved session into
//     per-rung packet artifacts, the X-Vcodec-Rungs trailer carries
//     per-rung frames/PSNR/kbps, the flight recorder tags events by
//     rung, and /metrics exports plane-pool hit/miss counters per size
//     class (ladder sessions churn downscaled planes hardest). `make
//     bench-ladder` writes BENCH_ladder.json — ladder vs N independent
//     encodes (wall-clock speedup, bounded by 1 + Σ4⁻ʳ on one core;
//     rung concurrency lifts it on multicore hosts) plus per-rung
//     points/MB, PSNR and kbps — and `make ladder-smoke` gates CI
//     on serve → split → byte-match the offline ladder → decode every
//     rung → clean drain.
package repro
