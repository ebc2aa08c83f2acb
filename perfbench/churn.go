package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"net"
	"sort"
	"time"

	"github.com/multiradio/chanalloc"
	"github.com/multiradio/chanalloc/internal/live"
)

const (
	// churnRate is the rate function allocd serves by default.
	churnRate = "tdma:54"
	// verifyWorkers pins the server's NE-verification fan-out. It is a
	// constant, never NumCPU: at N≈200 two workers measured about 50%
	// slower than one on a 2-core host, and a host-dependent worker count
	// would make results from different hosts incomparable.
	verifyWorkers = 1
)

// churnSize is the shape of a churn workload: the live.ParseChurnSpec form
// "channels,initial,events,seed" without the seed.
type churnSize struct {
	channels, initial, events int
}

// churnInput is one generated churn trace plus its reference transcript.
// Frame 0 of the transcript is the hello; frame k+1 answers lines[k].
type churnInput struct {
	cfg    live.Config
	reqs   []live.Request // the trace's events, then stats and bye
	lines  [][]byte       // reqs as NDJSON lines
	events int            // mutation requests in reqs
	warm   int            // leading events excluded from latency (the initial joins)

	ref    [][]byte       // reference frames, newline included
	refBad []bool         // reference frame is an error, unconverged or unverified update
	refUpd []*live.Update // reference update per frame (nil for other frames)
	refSHA [sha256.Size]byte
}

// newChurnInput generates the trace for size and seed and builds its
// reference transcript: the same input served in-process over an in-memory
// reader and writer, which is what `allocd -mode churn` prints.
func newChurnInput(size churnSize, seed uint64) (*churnInput, error) {
	spec, err := live.ParseChurnSpec(fmt.Sprintf("%d,%d,%d,%d", size.channels, size.initial, size.events, seed))
	if err != nil {
		return nil, err
	}
	trace, err := live.GenerateTrace(spec)
	if err != nil {
		return nil, err
	}
	rate, err := chanalloc.ParseRate(churnRate)
	if err != nil {
		return nil, err
	}
	in := &churnInput{
		cfg: live.Config{
			Channels: spec.Channels,
			Rate:     rate,
			RateName: churnRate,
			Workers:  verifyWorkers,
			Verify:   true,
		},
		reqs:   append(trace, live.Request{Op: "stats"}, live.Request{Op: "bye"}),
		events: len(trace),
		warm:   size.initial,
	}
	var all bytes.Buffer
	for _, req := range in.reqs {
		b, err := json.Marshal(req)
		if err != nil {
			return nil, err
		}
		in.lines = append(in.lines, append(b, '\n'))
		all.Write(b)
		all.WriteByte('\n')
	}
	srv, err := live.NewServer(in.cfg)
	if err != nil {
		return nil, err
	}
	var out bytes.Buffer
	if err := srv.Serve(bytes.NewReader(all.Bytes()), &out); err != nil {
		return nil, fmt.Errorf("perfbench: reference serve: %w", err)
	}
	in.refSHA = sha256.Sum256(out.Bytes())
	for _, frame := range bytes.SplitAfter(out.Bytes(), []byte("\n")) {
		if len(frame) > 0 {
			in.ref = append(in.ref, frame)
		}
	}
	if len(in.ref) != len(in.lines)+1 {
		return nil, fmt.Errorf("perfbench: reference transcript has %d frames for %d requests", len(in.ref), len(in.lines))
	}
	in.refBad = make([]bool, len(in.ref))
	in.refUpd = make([]*live.Update, len(in.ref))
	for k, frame := range in.ref[1:] {
		var resp live.Response
		if err := json.Unmarshal(frame, &resp); err != nil {
			return nil, fmt.Errorf("perfbench: reference frame %d: %w", k+1, err)
		}
		in.refUpd[k+1] = resp.Update
		switch {
		case resp.Type == "error":
			in.refBad[k+1] = true
		case resp.Type == "update":
			in.refBad[k+1] = resp.Update == nil || !resp.Update.Converged || !resp.Update.Verified
		}
	}
	return in, nil
}

// checkFrame gates frame k of one replay against the reference and feeds it
// to the transcript hash. It returns 1 for a failed frame, else 0.
func (e *runEnv) checkFrame(in *churnInput, replay, k int, frame []byte, h hash.Hash) int {
	if e.opts.corruptFrame != nil {
		frame = e.opts.corruptFrame(replay, k, frame)
	}
	h.Write(frame)
	switch {
	case !bytes.Equal(frame, in.ref[k]):
		e.mismatch("churn replay %d frame %d: got %q, want %q", replay, k, clip(frame), clip(in.ref[k]))
	case in.refBad[k]:
		e.mismatch("churn replay %d frame %d: error, unconverged or unverified reply %q", replay, k, clip(frame))
	default:
		return 0
	}
	return 1
}

// checkTranscript compares a replay's transcript digest with the
// reference's; a differing digest with no failed frame still fails once.
func (e *runEnv) checkTranscript(in *churnInput, replay int, h hash.Hash, failed int) int {
	var got [sha256.Size]byte
	h.Sum(got[:0])
	if got == in.refSHA {
		return failed
	}
	e.mismatch("churn replay %d: transcript sha256 %x, want %x", replay, got, in.refSHA)
	return max(failed, 1)
}

func clip(b []byte) []byte {
	b = bytes.TrimRight(b, "\n")
	if len(b) > 160 {
		return b[:160]
	}
	return b
}

// tcpConn is one client conversation with a fresh live server on its own
// loopback listener, advanced one request at a time.
type tcpConn struct {
	env    *runEnv
	in     *churnInput
	replay int
	ln     net.Listener
	conn   net.Conn
	br     *bufio.Reader
	h      hash.Hash
	served chan error
	stop   func() bool
	failed int
	setup  time.Duration // listener open until the hello frame is read
}

// dialServer opens a listener, serves its one connection with a fresh
// live server, dials it and reads the hello frame. On error nothing it
// started is left running; otherwise close releases everything.
func (in *churnInput) dialServer(env *runEnv, replay int) (*tcpConn, error) {
	start := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("perfbench: listen: %w", err)
	}
	env.listened(ln.Addr())
	c := &tcpConn{env: env, in: in, replay: replay, ln: ln, h: sha256.New(), served: make(chan error, 1)}
	go func() { c.served <- serveOne(ln, in.cfg) }()
	if c.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		ln.Close()
		<-c.served
		return nil, fmt.Errorf("perfbench: dial: %w", err)
	}
	c.stop = context.AfterFunc(env.ctx, func() { c.conn.Close(); ln.Close() })
	c.br = bufio.NewReaderSize(c.conn, 64<<10)
	frame, err := c.br.ReadSlice('\n')
	if err != nil {
		return nil, c.close(fmt.Errorf("perfbench: reading hello: %w", err))
	}
	c.setup = time.Since(start)
	c.failed += env.checkFrame(in, replay, 0, frame, c.h)
	env.setupDone()
	return c, nil
}

// step sends request k and reads its reply, returning when the request
// was written and when the reply was read; with a recorder the round trip
// is a tcp.event span.
func (c *tcpConn) step(k int, rec *recorder) (t0, t1 time.Time, err error) {
	sp := rec.begin("tcp.event", int64(k), -1)
	t0 = time.Now()
	if _, err := c.conn.Write(c.in.lines[k]); err != nil {
		return t0, t0, fmt.Errorf("perfbench: writing request %d: %w", k, err)
	}
	frame, err := c.br.ReadSlice('\n')
	t1 = time.Now()
	rec.end(sp)
	if err != nil {
		return t0, t1, fmt.Errorf("perfbench: reading reply %d: %w", k, err)
	}
	c.failed += c.env.checkFrame(c.in, c.replay, k+1, frame, c.h)
	return t0, t1, nil
}

// close releases the listener, the connection and the server goroutine,
// waiting for the goroutine to end. It returns err, or a cancellation or
// server error when err is nil.
func (c *tcpConn) close(err error) error {
	c.stop()
	c.conn.Close()
	c.ln.Close()
	serr := <-c.served
	if cerr := c.env.ctx.Err(); cerr != nil {
		return cerr
	}
	if err == nil && serr != nil {
		err = fmt.Errorf("perfbench: live server: %w", serr)
	}
	return err
}

// session is one churn-trace replay's outcome.
type session struct {
	setup     time.Duration // listener open until the hello frame is read
	wall      time.Duration // listener open until the bye frame is read
	attempted int
	failed    int
}

// tcpSession replays the trace once over a fresh tcpConn: one closed-loop
// client, timing each event from request write to reply read into win and
// el.
func (in *churnInput) tcpSession(env *runEnv, replay int, win *windowed, el *eventLatency) (s session, err error) {
	start := time.Now()
	c, err := in.dialServer(env, replay)
	if err != nil {
		return s, err
	}
	defer func() { err = c.close(err) }()
	win.reset()
	for k := range in.lines {
		t0, t1, err := c.step(k, nil)
		if err != nil {
			return s, err
		}
		el.set(k, t1.Sub(t0))
		if k >= in.warm && k < in.events {
			win.add(t0, t1)
		}
	}
	el.replays++
	s.setup = c.setup
	s.wall = time.Since(start)
	s.attempted = len(in.ref)
	s.failed = env.checkTranscript(in, replay, c.h, c.failed)
	return s, nil
}

// serveOne accepts one connection and serves it with a fresh live server,
// as allocd does per connection.
func serveOne(ln net.Listener, cfg live.Config) error {
	conn, err := ln.Accept()
	if err != nil {
		return err
	}
	defer conn.Close()
	srv, err := live.NewServer(cfg)
	if err != nil {
		return err
	}
	return srv.Serve(conn, conn)
}

// opMix counts the trace's mutation requests by op.
func (in *churnInput) opMix() map[string]int {
	mix := map[string]int{}
	for _, req := range in.reqs[:in.events] {
		mix[req.Op]++
	}
	return mix
}

// keepReplays is how many replays' latencies eventLatency keeps per request.
const keepReplays = 15

// eventLatency keeps every request's latency from its last keepReplays
// replays, in memory allocated once so the benchmark's own heap stays
// constant and the garbage collector paces the measured program the same
// way all run long.
type eventLatency struct {
	lat     []time.Duration // event i's samples at [i*keepReplays, (i+1)*keepReplays)
	replays int
}

func newEventLatency(requests int) *eventLatency {
	return &eventLatency{lat: make([]time.Duration, requests*keepReplays)}
}

func (e *eventLatency) set(i int, d time.Duration) { e.lat[i*keepReplays+e.replays%keepReplays] = d }

// medians returns each request's median latency over its kept replays.
func (e *eventLatency) medians() []time.Duration {
	n := min(e.replays, keepReplays)
	out := make([]time.Duration, len(e.lat)/keepReplays)
	for i := range out {
		out[i] = median(e.lat[i*keepReplays : i*keepReplays+n])
	}
	return out
}

// windowEvents is the number of consecutive timed events over which the
// detail line's raw figures are taken — a window's p99 (ten samples beyond
// it) and its throughput — each reported as the median over windows.
const windowEvents = 1000

// windowed summarises timed events window by window.
type windowed struct {
	buf         []time.Duration
	start       time.Time // request write of the window's first event
	p99s, rates []float64
	maxes       []time.Duration
}

// newWindowed sizes windows for a trace with timed events per replay; a
// trace shorter than windowEvents is one window per replay.
func newWindowed(timed int) *windowed {
	return &windowed{buf: make([]time.Duration, 0, max(1, min(windowEvents, timed)))}
}

// reset drops a partial window: windows never span two replays.
func (w *windowed) reset() { w.buf = w.buf[:0] }

// add records one event, written at t0 and answered at t1.
func (w *windowed) add(t0, t1 time.Time) {
	if len(w.buf) == 0 {
		w.start = t0
	}
	w.buf = append(w.buf, t1.Sub(t0))
	if len(w.buf) < cap(w.buf) {
		return
	}
	sort.Slice(w.buf, func(a, b int) bool { return w.buf[a] < w.buf[b] })
	n := len(w.buf)
	w.p99s = append(w.p99s, us(w.buf[int(0.99*float64(n-1))]))
	w.maxes = append(w.maxes, w.buf[n-1])
	w.rates = append(w.rates, float64(n)/t1.Sub(w.start).Seconds())
	w.buf = w.buf[:0]
}

// runChurn is the untraced end-to-end run: replay the trace over loopback
// TCP until the time is up, one fresh listener and server per replay.
//
// Every replay sends the same requests, so each request's latency is taken
// as its median over the replays: event_p50_us and event_p99_us are
// percentiles of those over the timed events, events_per_s is the timed
// events over the sum of theirs, and batch_s is the sum over the whole
// trace. A shared host stalls single round trips at random — on a 2-vCPU
// VM, between a quiet and a busy period, the pooled p99 moved by a third
// and the replay wall time by 30% while the median round trip held — and
// the per-request median keeps those stalls out while a request the
// program makes slower shows in every figure. The raw figures (replay wall
// time, window throughput and pooled p99) are on the detail line.
func runChurn(env *runEnv, in *churnInput) (map[string]float64, error) {
	deadline := time.Now().Add(env.opts.seconds)
	win := newWindowed(in.events - in.warm)
	el := newEventLatency(len(in.lines))
	var setups, walls []time.Duration
	for replay := 0; replay == 0 || time.Now().Before(deadline); replay++ {
		s, err := in.tcpSession(env, replay, win, el)
		if err != nil {
			return nil, err
		}
		env.count(s.attempted, s.failed)
		setups = append(setups, s.setup)
		walls = append(walls, s.wall)
	}
	meds := el.medians()
	timed := meds[in.warm:in.events]
	var batch, busy time.Duration
	for k, d := range meds {
		batch += d
		if k >= in.warm && k < in.events {
			busy += d
		}
	}
	env.detail["replays"] = len(walls)
	env.detail["latency_samples"] = len(walls) * len(timed)
	env.detail["raw"] = map[string]float64{
		"replay_wall_s":       median(walls).Seconds(),
		"window_events_per_s": medianOf(win.rates),
		"window_p99_us":       medianOf(win.p99s),
		"max_event_us":        us(quantile(win.maxes, 1)),
	}
	env.detail["op_mix"] = in.opMix()
	return map[string]float64{
		"events_per_s": float64(len(timed)) / busy.Seconds(),
		"event_p50_us": us(quantile(timed, 0.50)),
		"event_p99_us": us(quantile(timed, 0.99)),
		"batch_s":      batch.Seconds(),
		"setup_s":      median(setups).Seconds(),
	}, nil
}
