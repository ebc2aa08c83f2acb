// Command perfbench is the repository benchmark: it measures the two
// end-to-end paths of the channel-allocation system — a churn event through
// the live allocation service, and a token-ring batch through the engine's
// cluster backend — and, in a separate traced run, each layer on the way.
//
//	bash perfbench/run.sh --workload churn-small --seed 1 --seconds 15 --trace 0
//
// Workloads (BENCHMARK.json records why each was chosen):
//
//	churn-small  trace "4,6,E,seed" against a live server on loopback TCP
//	churn-large  trace "12,200,E,seed", the same path at N≈200
//	ring-grid    the E12 token-ring grid replicated into one batch on a cluster
//
// Everything runs in this process on 127.0.0.1:0; no child process is
// started. Every reply and result is checked against a reference built
// in-process from the same input. The last line of standard output is the
// result object; the lines before it carry host metadata and run details.
// The traced run keeps its spans in memory and writes them to
// .bench_build/spans/<workload>.ndjson when it ends.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"time"

	"github.com/multiradio/chanalloc/internal/dist"
)

// hardLimit bounds a whole run, set-up and teardown included; past it the
// run is cancelled like an interrupt.
const hardLimit = 170 * time.Second

// workload is one named input family and its size. The probe sizes are
// the inputs its traced run uses for the layers the workload itself does
// not exercise: the traced run measures every layer on every workload, so
// a churn workload measures the engine on one copy of the E12 grid, and
// ring-grid measures the live path on a churn-small-shaped trace.
type workload struct {
	name       string
	churn      *churnSize // nil for ring-grid
	ring       int        // grid replicas; 0 for the churn workloads
	probeChurn churnSize
	probeRing  int
}

func lookupWorkload(name string) (workload, error) {
	w := workload{name: name, probeChurn: churnSize{channels: 4, initial: 6, events: 1000}, probeRing: 1}
	switch name {
	case "churn-small":
		w.churn = &churnSize{channels: 4, initial: 6, events: 5006}
	case "churn-large":
		w.churn = &churnSize{channels: 12, initial: 200, events: 5200}
	case "ring-grid":
		w.ring = 20
	default:
		return workload{}, fmt.Errorf("perfbench: unknown workload %q (want churn-small, churn-large or ring-grid)", name)
	}
	return w, nil
}

// probeShare is the part of a traced run's time the probe ladder gets.
const probeShare = 0.15

// options configure one run. The func fields are seams for the
// benchmark's own tests; main leaves them nil.
type options struct {
	seed    uint64
	seconds time.Duration
	trace   bool
	spanDir string
	stderr  io.Writer

	corruptFrame func(replay, frame int, b []byte) []byte
	corruptRing  func(batch int, res []dist.RingResult)
	onListen     func(net.Addr)
	onSetup      func()
}

// runEnv is the state one run threads through its workloads: the
// cancellation context, the correctness tallies and run details.
type runEnv struct {
	ctx  context.Context
	opts options

	attempted, failed int
	mismatches        int
	detail            map[string]any
	setupCalled       bool
	errMu             sync.Mutex // guards opts.stderr; cluster workers warn from their goroutines
}

// maxPrinted caps the mismatch lines one run prints; the rest are counted.
const maxPrinted = 50

func (e *runEnv) count(attempted, failed int) {
	e.attempted += attempted
	e.failed += failed
}

func (e *runEnv) mismatch(format string, args ...any) {
	e.mismatches++
	if e.mismatches <= maxPrinted {
		e.warn("perfbench: mismatch: "+format, args...)
	}
}

func (e *runEnv) warn(format string, args ...any) {
	e.errMu.Lock()
	defer e.errMu.Unlock()
	fmt.Fprintf(e.opts.stderr, format+"\n", args...)
}

func (e *runEnv) listened(a net.Addr) {
	if e.opts.onListen != nil {
		e.opts.onListen(a)
	}
}

func (e *runEnv) setupDone() {
	if e.opts.onSetup != nil && !e.setupCalled {
		e.setupCalled = true
		e.opts.onSetup()
	}
}

// result is the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// run executes one workload, untraced or traced, and returns its result
// and details. Every listener, connection and goroutine it starts is gone
// when it returns, whatever the outcome.
func run(ctx context.Context, w workload, opts options) (*result, map[string]any, error) {
	env := &runEnv{ctx: ctx, opts: opts, detail: map[string]any{}}
	var values map[string]float64
	var err error
	if opts.trace {
		values, err = tracedRun(env, w)
	} else {
		values, err = untracedRun(env, w)
	}
	if err == nil {
		err = ctx.Err()
	}
	if err != nil {
		return nil, nil, err
	}
	defs := endToEnd
	if opts.trace {
		defs = perLayer
	}
	metrics, err := collect(defs, values)
	if err != nil {
		return nil, nil, err
	}
	if env.mismatches > maxPrinted {
		env.warn("perfbench: %d more mismatches not printed", env.mismatches-maxPrinted)
	}
	env.detail["failed_frac"] = float64(env.failed) / float64(env.attempted)
	env.detail["mismatches"] = env.mismatches
	return &result{
		Correct:   env.failed == 0,
		Attempted: env.attempted,
		Failed:    env.failed,
		Metrics:   metrics,
	}, env.detail, nil
}

func untracedRun(env *runEnv, w workload) (map[string]float64, error) {
	var values map[string]float64
	if w.churn != nil {
		in, err := newChurnInput(*w.churn, env.opts.seed)
		if err != nil {
			return nil, err
		}
		if values, err = runChurn(env, in); err != nil {
			return nil, err
		}
	} else {
		in, err := newRingInput(w.ring, env.opts.seed)
		if err != nil {
			return nil, err
		}
		if values, err = runRing(env, in); err != nil {
			return nil, err
		}
	}
	rss, err := peakRSSMB()
	if err != nil {
		return nil, err
	}
	values["peak_rss_mb"] = rss
	return values, nil
}

// spanCapacity bounds the spans one traced run keeps in memory.
const spanCapacity = 1 << 18

// tracedRun measures both ladders: the workload's own path gets most of
// the time, the other path runs on its probe input.
func tracedRun(env *runEnv, w workload) (map[string]float64, error) {
	churn, ring, primaryLive := w.probeChurn, w.probeRing, false
	if w.churn != nil {
		churn, primaryLive = *w.churn, true
	} else {
		ring = w.ring
	}
	churnIn, err := newChurnInput(churn, env.opts.seed)
	if err != nil {
		return nil, err
	}
	ringIn, err := newRingInput(ring, env.opts.seed)
	if err != nil {
		return nil, err
	}
	rec := newRecorder(spanCapacity)
	primary := time.Duration((1 - probeShare) * float64(env.opts.seconds))
	probe := env.opts.seconds - primary
	liveBudget, ringBudget := primary, probe
	var liveGC, ringGC *[2]runtime.MemStats
	var gc [2]runtime.MemStats
	if primaryLive {
		liveGC = &gc
	} else {
		liveBudget, ringBudget = probe, primary
		ringGC = &gc
	}
	values, err := liveLadder(env, churnIn, rec, liveBudget, liveGC)
	if err != nil {
		return nil, err
	}
	ringValues, err := ringLadder(env, ringIn, rec, ringBudget, ringGC)
	if err != nil {
		return nil, err
	}
	for k, v := range ringValues {
		values[k] = v
	}
	values["runtime.gc_cycles"] = float64(gc[1].NumGC - gc[0].NumGC)
	values["runtime.gc_pause_ms"] = ms(time.Duration(gc[1].PauseTotalNs - gc[0].PauseTotalNs))
	values["trace.spans"] = float64(len(rec.spans))
	env.detail["spans_dropped"] = rec.dropped
	path := filepath.Join(env.opts.spanDir, w.name+".ndjson")
	if err := rec.writeSpans(path); err != nil {
		return nil, err
	}
	env.detail["spans_file"] = path
	return values, nil
}

func main() {
	// Last resort: if a teardown ever hangs past the hard limit, leave
	// rather than linger. Everything the run started lives in this process,
	// so exiting ends it all.
	time.AfterFunc(hardLimit+8*time.Second, func() {
		fmt.Fprintln(os.Stderr, "perfbench: teardown overran the hard limit; exiting")
		os.Exit(3)
	})
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr, options{}))
}

// realMain parses flags, runs the workload under SIGINT/SIGTERM and the
// hard limit, and prints the result. It returns the exit code: 0 for a
// correct run, 1 for a failed check (the result is still printed), 2 for a
// run that did not finish (nothing is printed).
func realMain(args []string, stdout, stderr io.Writer, seams options) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "churn-small | churn-large | ring-grid")
	seed := fs.Uint64("seed", 1, "input seed")
	seconds := fs.Float64("seconds", 10, "measured time per run")
	trace := fs.Int("trace", 0, "1 for the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, err := lookupWorkload(*name)
	if err != nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d): %v\n", *name, *seconds, *trace, err)
		return 2
	}
	opts := seams
	opts.seed = *seed
	opts.seconds = time.Duration(*seconds * float64(time.Second))
	opts.trace = *trace == 1
	opts.stderr = stderr
	opts.spanDir = filepath.Join(".bench_build", "spans")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, cancel := context.WithTimeout(ctx, hardLimit)
	defer cancel()
	res, detail, err := run(ctx, w, opts)
	if err != nil {
		if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
			fmt.Fprintf(stderr, "perfbench: run stopped: %v\n", context.Cause(ctx))
		} else {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
		}
		return 2
	}
	detail["workload"] = w.name
	detail["seed"] = opts.seed
	detail["trace"] = opts.trace
	enc := json.NewEncoder(stdout)
	for _, line := range []any{map[string]any{"host": hostInfo()}, map[string]any{"detail": detail}, res} {
		if err := enc.Encode(line); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing result: %v\n", err)
			return 2
		}
	}
	if !res.Correct {
		return 1
	}
	return 0
}
