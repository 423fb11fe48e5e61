// Package chaos injects transport faults between a gateway and its
// backends. A Proxy is a TCP relay listening on a loopback port and
// forwarding to one real backend; the Plan in force — settable at
// runtime, mid-connection — decides what the relay does to the traffic:
// add latency, stall it, reset connections after a byte budget, refuse
// new ones, or go dark entirely. KillActive cuts every established
// connection at once, the mid-stream backend-crash case, and ArmOnSession
// times a fault to the moment the backend starts answering a session.
//
// The proxy operates below HTTP on purpose: the failures it produces are
// the ones a real network or a crashed peer produces (RST, silence,
// half-delivered bytes), so the gateway's retry, breaker, and idle
// timeout machinery is exercised exactly as deployed — nothing is mocked
// at the protocol level.
package chaos

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// Plan is the fault set in force. The zero Plan forwards faithfully.
type Plan struct {
	// Latency is added before each forwarded chunk, both directions —
	// a slow, but correct, network path.
	Latency time.Duration
	// Stall freezes forwarding (established connections carry no bytes)
	// while set — a partition that keeps sockets open. Clearing the plan
	// un-freezes connections that are still alive.
	Stall bool
	// ResetAfterBytes, when positive, resets a connection (RST, not FIN)
	// once that many backend→client bytes have crossed it — a peer dying
	// mid-response.
	ResetAfterBytes int64
	// RefuseNew rejects new connections immediately — a down listener —
	// while leaving established ones alone.
	RefuseNew bool
}

// Proxy is one fault-injecting TCP relay in front of one backend.
type Proxy struct {
	ln     net.Listener
	target string

	mu    sync.Mutex
	plan  Plan
	armed *armedFault           // ArmOnSession's pending fault
	conns map[net.Conn]struct{} // accepted sides, for KillActive
	done  bool

	wg sync.WaitGroup
}

// New starts a proxy on a random loopback port relaying to target
// (host:port of a real backend).
func New(target string) (*Proxy, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &Proxy{ln: ln, target: target, conns: make(map[net.Conn]struct{})}
	p.wg.Add(1)
	go p.acceptLoop()
	return p, nil
}

// Addr is the proxy's listen address (host:port).
func (p *Proxy) Addr() string { return p.ln.Addr().String() }

// URL is the proxy's base URL, the form gateway Config.Backends wants.
func (p *Proxy) URL() string { return "http://" + p.Addr() }

// SetPlan swaps the fault plan; it applies to in-flight connections at
// their next chunk boundary and to every connection accepted after. It
// also disarms a pending ArmOnSession fault.
func (p *Proxy) SetPlan(plan Plan) {
	p.mu.Lock()
	p.plan = plan
	p.armed = nil
	p.mu.Unlock()
}

// armedFault is a fault waiting for the backend's next session response.
type armedFault struct {
	plan  Plan
	kill  bool
	fired func()
}

// ArmOnSession schedules a fault for the moment the backend starts
// answering a session: the first backend→client bytes on a connection
// whose last request was a POST (an /encode session, never a health or
// metrics poll). The proxy then switches to plan — applied to those very
// bytes, before they are forwarded — resets every established connection
// when kill is set (the answering one included, so that session dies
// before its first byte reaches the client), and calls fired, if non-nil.
// The fault fires once.
func (p *Proxy) ArmOnSession(plan Plan, kill bool, fired func()) {
	p.mu.Lock()
	p.armed = &armedFault{plan: plan, kill: kill, fired: fired}
	p.mu.Unlock()
}

// fire triggers the armed fault, if any.
func (p *Proxy) fire() {
	p.mu.Lock()
	a := p.armed
	p.armed = nil
	if a != nil {
		p.plan = a.plan
	}
	p.mu.Unlock()
	if a == nil {
		return
	}
	if a.kill {
		p.KillActive()
	}
	if a.fired != nil {
		a.fired()
	}
}

// Plan returns the plan in force.
func (p *Proxy) Plan() Plan {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.plan
}

// KillActive resets every established connection — the backend crashed
// mid-stream. New connections are still accepted (under the current
// plan), so the "backend" comes back the moment the real one answers.
func (p *Proxy) KillActive() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.conns)
	for c := range p.conns {
		abort(c)
	}
	return n
}

// Close stops the listener and resets everything in flight.
func (p *Proxy) Close() {
	p.mu.Lock()
	if p.done {
		p.mu.Unlock()
		return
	}
	p.done = true
	for c := range p.conns {
		abort(c)
	}
	p.mu.Unlock()
	p.ln.Close()
	p.wg.Wait()
}

// abort closes a TCP connection with linger 0 so the peer sees RST, the
// signature of a crashed process rather than a polite shutdown.
func abort(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Close()
}

func (p *Proxy) acceptLoop() {
	defer p.wg.Done()
	for {
		client, err := p.ln.Accept()
		if err != nil {
			return // listener closed
		}
		if p.Plan().RefuseNew {
			abort(client)
			continue
		}
		backend, err := net.DialTimeout("tcp", p.target, 2*time.Second)
		if err != nil {
			abort(client)
			continue
		}
		p.mu.Lock()
		if p.done {
			p.mu.Unlock()
			abort(client)
			abort(backend)
			return
		}
		p.conns[client] = struct{}{}
		p.conns[backend] = struct{}{}
		p.mu.Unlock()
		p.wg.Add(1)
		go p.relay(client, backend)
	}
}

// relay pumps both directions until either side dies or the plan resets
// the connection.
func (p *Proxy) relay(client, backend net.Conn) {
	defer p.wg.Done()
	defer func() {
		abort(client)
		abort(backend)
		p.mu.Lock()
		delete(p.conns, client)
		delete(p.conns, backend)
		p.mu.Unlock()
	}()
	var session atomic.Bool // the connection's last request was a POST
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); p.pump(backend, client, false, &session) }()
	go func() { defer wg.Done(); p.pump(client, backend, true, &session) }()
	wg.Wait()
}

// pump copies src→dst chunk by chunk, applying the plan at each boundary.
// counted marks the backend→client direction, the one ResetAfterBytes
// meters and ArmOnSession watches; the client→backend direction notes in
// session whether each new request is a POST.
func (p *Proxy) pump(dst, src net.Conn, counted bool, session *atomic.Bool) {
	buf := make([]byte, 32<<10)
	var moved int64
	for {
		n, err := src.Read(buf)
		if n > 0 {
			switch {
			case counted:
				if session.Load() {
					p.fire()
				}
			case bytes.HasPrefix(buf[:n], []byte("POST ")):
				session.Store(true)
			case bytes.HasPrefix(buf[:n], []byte("GET ")):
				session.Store(false)
			}
			for {
				plan := p.Plan()
				if !plan.Stall {
					if plan.Latency > 0 {
						time.Sleep(plan.Latency)
					}
					break
				}
				// Stalled: hold the bytes, keep the sockets. Poll so a
				// cleared plan (partition healed) resumes the stream.
				time.Sleep(10 * time.Millisecond)
				if p.closedConn(src) {
					return
				}
			}
			if _, werr := dst.Write(buf[:n]); werr != nil {
				return
			}
			moved += int64(n)
			if counted {
				if lim := p.Plan().ResetAfterBytes; lim > 0 && moved >= lim {
					return // defer aborts both sides: RST mid-response
				}
			}
		}
		if err != nil {
			return
		}
	}
}

// closedConn reports whether KillActive/Close already removed c.
func (p *Proxy) closedConn(c net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	_, ok := p.conns[c]
	return !ok || p.done
}

// Fleet is a set of proxies fronting a set of backends, addressed by
// index — the shape chaos scenarios script against.
type Fleet struct {
	Proxies []*Proxy
}

// NewFleet builds one proxy per backend target.
func NewFleet(targets []string) (*Fleet, error) {
	f := &Fleet{}
	for _, t := range targets {
		pr, err := New(t)
		if err != nil {
			f.Close()
			return nil, fmt.Errorf("chaos: proxy for %s: %w", t, err)
		}
		f.Proxies = append(f.Proxies, pr)
	}
	return f, nil
}

// URLs lists the proxies' base URLs in target order.
func (f *Fleet) URLs() []string {
	out := make([]string, len(f.Proxies))
	for i, pr := range f.Proxies {
		out[i] = pr.URL()
	}
	return out
}

// Close shuts every proxy down.
func (f *Fleet) Close() {
	for _, pr := range f.Proxies {
		pr.Close()
	}
}
