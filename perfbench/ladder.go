package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"hash"
	"io"
	"runtime"
	"time"

	"github.com/multiradio/chanalloc/internal/core"
	"github.com/multiradio/chanalloc/internal/dynamics"
	"github.com/multiradio/chanalloc/internal/hetero"
	"github.com/multiradio/chanalloc/internal/live"
)

// liveLadder measures the live path rung by rung on one trace, each rung
// adding one layer, so the gap between rungs is that layer's cost:
//
//	layers  hetero mutation, warm Requilibrate, NE check and a DP sweep, called directly
//	apply   live.Server.Apply per event
//	serve   live.Server.Serve over an in-memory reader and writer
//	tcp     the same conversation over loopback TCP, traced and untraced
//
// Each rung has its own server or game, and all of them advance in lock
// step, ladderChunk events at a time: a chunk goes through every rung
// before the next chunk goes through any, so a drift in host speed reaches
// every rung alike, while within a chunk a rung runs as a closed loop and
// its threads stay awake. A round replays the whole trace this way; rounds
// repeat until the time is up or the recorder has no room for another.
// Every rung is gated against the reference. With gc set, the garbage
// collector's counters are read around the rounds.
func liveLadder(env *runEnv, in *churnInput, rec *recorder, budget time.Duration, gc *[2]runtime.MemStats) (map[string]float64, error) {
	const spansPerEvent = 8 // tcp 1, serve 1, apply 1, layers 5
	timed := in.events - in.warm
	deadline := time.Now().Add(budget)
	from := len(rec.spans)
	untracedLat := newEventLatency(len(in.lines))
	var ly layerStats
	if gc != nil {
		runtime.ReadMemStats(&gc[0])
	}
	rounds := 0
	for ; rounds == 0 || (time.Now().Before(deadline) && rec.room(timed*spansPerEvent)); rounds++ {
		if err := in.ladderRound(env, rounds, rec, untracedLat, &ly); err != nil {
			return nil, err
		}
	}
	if gc != nil {
		runtime.ReadMemStats(&gc[1])
	}
	mallocs, allocBytes, err := in.serveAllocs(env)
	if err != nil {
		return nil, err
	}

	// A layer's cost is the median over events of the per-event gap between
	// two rungs; each event's time in a rung is first reduced to its median
	// over the rounds.
	self := fold(rec.spans[from:])
	tcp := perEvent(self["tcp.event"])
	serve := perEvent(self["live.serve"])
	apply := perEvent(self["live.apply"])
	untraced := make(map[int64]time.Duration, timed)
	for k, d := range untracedLat.medians()[in.warm:in.events] {
		untraced[int64(in.warm+k)] = d
	}
	replyBytes := 0
	for _, frame := range in.ref[in.warm+1 : in.events+1] {
		replyBytes += len(frame)
	}
	n := float64(ly.events)
	var sweep time.Duration
	for _, ds := range self["core.dp"] {
		for _, d := range ds {
			sweep += d
		}
	}
	out := map[string]float64{
		"live.serve_us":                   us(medianOver(serve)),
		"live.apply_us":                   us(medianOver(apply)),
		"live.codec_us":                   us(pairedMedian(serve, apply)),
		"live.transport_us":               us(pairedMedian(tcp, serve)),
		"live.reply_bytes_per_event":      float64(replyBytes) / float64(timed),
		"live.allocs_per_event":           float64(mallocs) / float64(len(in.lines)),
		"live.alloc_bytes_per_event":      float64(allocBytes) / float64(len(in.lines)),
		"trace.event_p50_untraced_us":     us(medianOver(untraced)),
		"trace.overhead_us":               us(pairedMedian(tcp, untraced)),
		"hetero.mutate_us":                us(medianOver(perEvent(self["hetero.mutate"]))),
		"hetero.verify_us":                us(medianOver(perEvent(self["hetero.verify"]))),
		"dynamics.requilibrate_us":        us(medianOver(perEvent(self["dynamics.requilibrate"]))),
		"dynamics.dp_calls_per_event":     float64(ly.dpCalls) / n,
		"dynamics.warm_skipped_per_event": float64(ly.warmSkipped) / n,
		"dynamics.warm_skip_ratio":        float64(ly.warmSkipped) / float64(ly.warmSkipped+ly.dpCalls),
		"dynamics.rounds_per_event":       float64(ly.rounds) / n,
		"dynamics.moves_per_event":        float64(ly.moves) / n,
		// Derived: the mean cost of one best-response DP, from the timed
		// sweep over every user, times the DP calls Requilibrate makes per
		// event.
		"core.dp_us": us(sweep) / float64(ly.sweepCalls) * float64(ly.dpCalls) / n,
	}
	env.detail["live_ladder"] = map[string]any{
		"rounds":          rounds,
		"events_per_rung": rounds * timed,
		// The ladder's self times against the traced TCP time they split.
		"tcp_traced_us": us(medianOver(tcp)),
		"ladder_sum_us": out["live.apply_us"] + out["live.codec_us"] + out["live.transport_us"],
	}
	return out, nil
}

// ladderChunk is the number of consecutive events a rung serves before the
// next rung takes the same events: short enough that host-speed drift
// between rungs cancels (a chunk lasts milliseconds), long enough that a
// TCP rung's server thread is busy, not parked, as in the end-to-end loop.
// Waking a thread that went idle can cost tens of microseconds on a
// virtualised host, which one event at a time would add to every TCP event.
const ladderChunk = 100

// ladderRound replays the trace once through every rung in lock step. The
// rung order rotates with the chunk and the round, so no rung always runs
// first.
func (in *churnInput) ladderRound(env *runEnv, round int, rec *recorder, untracedLat *eventLatency, ly *layerStats) (err error) {
	var closers []func(error) error
	defer func() {
		for i := len(closers) - 1; i >= 0; i-- {
			err = closers[i](err)
		}
	}()
	untraced, err := in.dialServer(env, round)
	if err != nil {
		return err
	}
	closers = append(closers, untraced.close)
	traced, err := in.dialServer(env, round)
	if err != nil {
		return err
	}
	closers = append(closers, traced.close)
	sr, err := in.startServe(env, round, rec)
	if err != nil {
		return err
	}
	closers = append(closers, sr.close)
	ap, err := live.NewServer(in.cfg)
	if err != nil {
		return err
	}
	lr, err := in.newLayerRung(env, round, rec, ly)
	if err != nil {
		return err
	}
	isTimed := func(k int) bool { return k >= in.warm && k < in.events }
	apFailed := 0
	steps := []func(k int) error{
		func(k int) error {
			t0, t1, err := untraced.step(k, nil)
			untracedLat.set(k, t1.Sub(t0))
			return err
		},
		func(k int) error {
			r := rec
			if !isTimed(k) {
				r = nil
			}
			_, _, err := traced.step(k, r)
			return err
		},
		sr.step,
		func(k int) error {
			if k >= in.events {
				return nil // stats and bye are Serve's, not Apply's
			}
			sp := -1
			if isTimed(k) {
				sp = rec.begin("live.apply", int64(k), -1)
			}
			resp := ap.Apply(in.reqs[k])
			rec.end(sp)
			frame, err := json.Marshal(resp)
			if err != nil {
				return err
			}
			if !bytes.Equal(append(frame, '\n'), in.ref[k+1]) || in.refBad[k+1] {
				env.mismatch("churn apply round %d event %d: got %q, want %q", round, k, clip(frame), clip(in.ref[k+1]))
				apFailed++
			}
			return nil
		},
		lr.step,
	}
	for lo, c := 0, round; lo < len(in.lines); lo, c = lo+ladderChunk, c+1 {
		hi := min(lo+ladderChunk, len(in.lines))
		for i := range steps {
			step := steps[(i+c)%len(steps)]
			for k := lo; k < hi; k++ {
				if err := step(k); err != nil {
					return err
				}
			}
		}
	}
	untracedLat.replays++
	env.count(len(in.ref), env.checkTranscript(in, round, untraced.h, untraced.failed))
	env.count(len(in.ref), env.checkTranscript(in, round, traced.h, traced.failed))
	env.count(len(in.ref), env.checkTranscript(in, round, sr.h, sr.failed))
	env.count(in.events, apFailed)
	env.count(in.events, lr.failed)
	return nil
}

// serveRung runs live.Server.Serve over an in-memory reader and writer in
// a goroutine of its own, handing it one request line per step. The
// event's live.serve span opens as the line leaves Read and closes when
// the reply reaches Write: decode, Apply and encode of one event.
type serveRung struct {
	env    *runEnv
	in     *churnInput
	round  int
	rec    *recorder
	next   chan int      // line index Read hands Serve next; closed to end
	ack    chan struct{} // a frame was written
	done   chan error    // Serve's return
	open   int
	frames int
	failed int
	h      hash.Hash
}

func (in *churnInput) startServe(env *runEnv, round int, rec *recorder) (*serveRung, error) {
	srv, err := live.NewServer(in.cfg)
	if err != nil {
		return nil, err
	}
	r := &serveRung{
		env: env, in: in, round: round, rec: rec, open: -1, h: sha256.New(),
		next: make(chan int), ack: make(chan struct{}, 1), done: make(chan error, 1),
	}
	go func() { r.done <- srv.Serve(r, r) }()
	if err := r.wait(); err != nil { // the hello frame
		return nil, r.close(err)
	}
	return r, nil
}

func (r *serveRung) Read(p []byte) (int, error) {
	k, ok := <-r.next
	if !ok {
		return 0, io.EOF
	}
	line := r.in.lines[k]
	if len(p) < len(line) {
		return 0, fmt.Errorf("perfbench: %d-byte read buffer for a %d-byte line", len(p), len(line))
	}
	n := copy(p, line)
	if k >= r.in.warm && k < r.in.events {
		r.open = r.rec.begin("live.serve", int64(k), -1)
	}
	return n, nil
}

func (r *serveRung) Write(p []byte) (int, error) {
	r.rec.end(r.open)
	r.open = -1
	if k := r.frames; k < len(r.in.ref) {
		r.failed += r.env.checkFrame(r.in, r.round, k, p, r.h)
	} else {
		r.failed++
		r.env.mismatch("churn serve round %d: extra frame %d %q", r.round, k, clip(p))
	}
	r.frames++
	r.ack <- struct{}{}
	return len(p), nil
}

func (r *serveRung) step(k int) error {
	r.next <- k
	return r.wait()
}

func (r *serveRung) wait() error {
	select {
	case <-r.ack:
		return nil
	case err := <-r.done:
		r.done <- err // close reads it again
		// Serve returns right after writing its bye frame; that frame's
		// ack is already buffered.
		select {
		case <-r.ack:
			return nil
		default:
			return fmt.Errorf("perfbench: in-memory serve ended early: %v", err)
		}
	}
}

// close ends the conversation and waits for Serve to return.
func (r *serveRung) close(err error) error {
	close(r.next)
	serr := <-r.done
	if err == nil && serr != nil {
		err = fmt.Errorf("perfbench: in-memory serve: %w", serr)
	}
	return err
}

// layerStats accumulates the layers rung's counters over its timed events.
type layerStats struct {
	events, dpCalls, warmSkipped, rounds, moves int
	sweepCalls                                  int
}

// layerRung is the bottom rung: the steps of Server.Apply called directly
// on a live game — hetero mutation, warm Requilibrate, the frozen game's NE
// check — plus a timed best-response DP for every user, the core kernel
// Requilibrate and verification are built on. Each result is gated against
// the reference update's convergence statistics.
type layerRung struct {
	env    *runEnv
	in     *churnInput
	round  int
	rec    *recorder
	st     *layerStats
	lg     *hetero.LiveGame
	ws     *core.Workspace
	failed int
}

func (in *churnInput) newLayerRung(env *runEnv, round int, rec *recorder, st *layerStats) (*layerRung, error) {
	lg, err := hetero.NewLiveGame(in.cfg.Channels, in.cfg.Rate)
	if err != nil {
		return nil, err
	}
	return &layerRung{env: env, in: in, round: round, rec: rec, st: st, lg: lg, ws: core.NewWorkspace()}, nil
}

func (l *layerRung) step(k int) error {
	if k >= l.in.events {
		return nil
	}
	timed := k >= l.in.warm
	root := -1
	begin := func(name string) int {
		if !timed {
			return -1
		}
		return l.rec.begin(name, int64(k), root)
	}
	root = begin("layers.event")
	req := l.in.reqs[k]
	var err error
	sp := begin("hetero.mutate")
	switch req.Op {
	case "join":
		_, err = l.lg.Join(req.Budget)
	case "leave":
		err = l.lg.Leave(hetero.UserID(req.ID))
	case "budget":
		err = l.lg.SetBudget(hetero.UserID(req.ID), req.Budget)
	default:
		err = fmt.Errorf("unexpected op %q", req.Op)
	}
	l.rec.end(sp)
	var res dynamics.ReqResult
	if err == nil {
		sp = begin("dynamics.requilibrate")
		res, err = dynamics.Requilibrate(l.lg, dynamics.WithWorkspace(l.ws))
		l.rec.end(sp)
	}
	verified := true
	if g := l.lg.Frozen(); err == nil && g != nil {
		a := l.lg.Alloc()
		sp = begin("hetero.verify")
		verified, err = g.IsNashEquilibriumWith(l.ws, a)
		l.rec.end(sp)
		sp = begin("core.dp")
		for i := 0; i < g.Users(); i++ {
			g.View().BestResponseAllocInto(l.ws, a, i, g.Budget(i))
		}
		l.rec.end(sp)
		if timed {
			l.st.sweepCalls += g.Users()
		}
	}
	l.rec.end(root)
	want := l.in.refUpd[k+1]
	if err != nil || !res.Converged || !verified || want == nil ||
		res.Rounds != want.Rounds || res.Moves != want.Moves ||
		res.DPCalls != want.DPCalls || res.WarmSkipped != want.WarmSkipped {
		l.env.mismatch("churn layers round %d event %d: err=%v converged=%v verified=%v rounds=%d moves=%d dp_calls=%d warm_skipped=%d, want %+v",
			l.round, k, err, res.Converged, verified, res.Rounds, res.Moves, res.DPCalls, res.WarmSkipped, want)
		l.failed++
		return nil
	}
	if timed {
		l.st.events++
		l.st.dpCalls += res.DPCalls
		l.st.warmSkipped += res.WarmSkipped
		l.st.rounds += res.Rounds
		l.st.moves += res.Moves
	}
	return nil
}

// serveAllocs serves the whole trace once in-process, without spans, and
// returns the heap allocations it made; the transcript is gated like any
// other replay.
func (in *churnInput) serveAllocs(env *runEnv) (mallocs, allocBytes uint64, err error) {
	srv, err := live.NewServer(in.cfg)
	if err != nil {
		return 0, 0, err
	}
	input := bytes.Join(in.lines, nil)
	h := sha256.New()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	err = srv.Serve(bytes.NewReader(input), h)
	runtime.ReadMemStats(&m1)
	if err != nil {
		return 0, 0, fmt.Errorf("perfbench: in-memory serve: %w", err)
	}
	env.count(len(in.ref), env.checkTranscript(in, -1, h, 0))
	return m1.Mallocs - m0.Mallocs, m1.TotalAlloc - m0.TotalAlloc, nil
}
