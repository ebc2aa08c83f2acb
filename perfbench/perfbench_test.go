package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net"
	"os"
	"os/signal"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"github.com/multiradio/chanalloc/internal/dist"
)

// tiny shrinks a workload so a test run takes a fraction of a second.
func tiny(t *testing.T, name string) workload {
	t.Helper()
	w, err := lookupWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	w.probeChurn = churnSize{channels: 4, initial: 6, events: 60}
	w.probeRing = 1
	switch {
	case name == "churn-small":
		w.churn = &churnSize{channels: 4, initial: 6, events: 60}
	case name == "churn-large":
		w.churn = &churnSize{channels: 12, initial: 20, events: 80}
	default:
		w.ring = 1
	}
	return w
}

func tinyOptions(t *testing.T, trace bool) options {
	return options{seed: 3, seconds: 100 * time.Millisecond, trace: trace, spanDir: t.TempDir(), stderr: io.Discard}
}

// benchmarkJSON is the part of BENCHMARK.json the output must match.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// TestMetricNamesMatchBenchmarkJSON runs every workload BENCHMARK.json
// lists at a tiny size, untraced and traced, and checks the printed metric
// names and units are exactly the declared ones.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	want := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range bj.EndToEnd {
		want[false][m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		want[true][m.Name] = m.Unit
	}
	if len(bj.Workloads) == 0 {
		t.Fatal("BENCHMARK.json lists no workloads")
	}
	for _, wl := range bj.Workloads {
		for _, trace := range []bool{false, true} {
			res, _, err := run(context.Background(), tiny(t, wl.Name), tinyOptions(t, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", wl.Name, trace, res.Correct, res.Attempted, res.Failed)
			}
			got := map[string]string{}
			for name, m := range res.Metrics {
				got[name] = m.Unit
			}
			for name, unit := range want[trace] {
				if got[name] != unit {
					t.Errorf("%s trace=%v: metric %s unit %q, want %q", wl.Name, trace, name, got[name], unit)
				}
			}
			for name := range got {
				if _, ok := want[trace][name]; !ok {
					t.Errorf("%s trace=%v: metric %s is not in BENCHMARK.json", wl.Name, trace, name)
				}
			}
		}
	}
}

// TestGateCountsCorruptReply feeds the churn gate one corrupted reply frame;
// the run must report it as a failed operation.
func TestGateCountsCorruptReply(t *testing.T) {
	for _, trace := range []bool{false, true} {
		opts := tinyOptions(t, trace)
		var stderr bytes.Buffer
		opts.stderr = &stderr
		opts.corruptFrame = func(replay, frame int, b []byte) []byte {
			if replay != 0 || frame != 10 {
				return b
			}
			return bytes.Replace(b, []byte(`"converged":true`), []byte(`"converged":false`), 1)
		}
		res, detail, err := run(context.Background(), tiny(t, "churn-small"), opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Failed < 1 || detail["failed_frac"].(float64) <= 0 {
			t.Errorf("trace=%v: corrupted frame not counted: correct=%v failed=%d failed_frac=%v",
				trace, res.Correct, res.Failed, detail["failed_frac"])
		}
		if !strings.Contains(stderr.String(), "mismatch") {
			t.Errorf("trace=%v: mismatch not printed; stderr: %q", trace, stderr.String())
		}
	}
}

// TestGateCountsWrongRingResult feeds the ring gate one wrong result.
func TestGateCountsWrongRingResult(t *testing.T) {
	opts := tinyOptions(t, false)
	opts.corruptRing = func(batch int, res []dist.RingResult) {
		if batch == 0 {
			res[3].Rounds++
		}
	}
	res, detail, err := run(context.Background(), tiny(t, "ring-grid"), opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != 1 || detail["failed_frac"].(float64) <= 0 {
		t.Errorf("wrong ring result not counted: correct=%v failed=%d failed_frac=%v", res.Correct, res.Failed, detail["failed_frac"])
	}
}

// TestFold checks the fold: a parent's self time excludes the part of
// its interval its children cover, overlapping children counted once.
func TestFold(t *testing.T) {
	spans := []span{
		{name: "root", parent: -1, start: 0, end: 100},
		{name: "a", parent: 0, start: 10, end: 40},
		{name: "b", parent: 0, start: 30, end: 50},
		{name: "leaf", parent: 2, start: 35, end: 45},
	}
	self := fold(spans)
	for name, want := range map[string]time.Duration{"root": 60, "a": 30, "b": 10, "leaf": 10} {
		if got := self[name][0]; len(got) != 1 || got[0] != want {
			t.Errorf("self[%s] = %v, want [%v]", name, got, want)
		}
	}
}

// leakCheck records what a run opens and verifies afterwards that none of
// it survives: no child process, no listener still bound, no goroutine
// beyond the baseline taken before the run.
type leakCheck struct {
	mu       sync.Mutex
	addrs    []string
	baseline int
}

func newLeakCheck(t *testing.T) *leakCheck {
	// A tiny traced run first, so lazily started runtime and library
	// goroutines exist before the baseline is taken.
	if _, _, err := run(context.Background(), tiny(t, "ring-grid"), tinyOptions(t, true)); err != nil {
		t.Fatal(err)
	}
	// The first signal.Notify starts the runtime's signal loop for good.
	_, stop := signal.NotifyContext(context.Background(), syscall.SIGUSR1)
	stop()
	return &leakCheck{baseline: runtime.NumGoroutine()}
}

func (l *leakCheck) onListen(a net.Addr) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.addrs = append(l.addrs, a.String())
}

func (l *leakCheck) verify(t *testing.T) {
	t.Helper()
	l.mu.Lock()
	addrs := append([]string(nil), l.addrs...)
	l.mu.Unlock()
	if len(addrs) == 0 {
		t.Error("the run opened no listener; the check saw nothing")
	}
	for _, addr := range addrs {
		if c, err := net.DialTimeout("tcp", addr, 200*time.Millisecond); err == nil {
			c.Close()
			t.Errorf("listener %s still accepts connections", addr)
		}
	}
	if kids := childProcesses(t); len(kids) > 0 {
		t.Errorf("child processes still alive: %v", kids)
	}
	deadline := time.Now().Add(3 * time.Second)
	for runtime.NumGoroutine() > l.baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > l.baseline {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines, baseline %d:\n%s", n, l.baseline, buf[:runtime.Stack(buf, true)])
	}
}

// childProcesses lists the pids whose parent is this process.
func childProcesses(t *testing.T) []string {
	t.Helper()
	ents, err := os.ReadDir("/proc")
	if err != nil {
		t.Skipf("no /proc: %v", err)
	}
	self := strconv.Itoa(os.Getpid())
	var kids []string
	for _, e := range ents {
		if _, err := strconv.Atoi(e.Name()); err != nil {
			continue
		}
		stat, err := os.ReadFile("/proc/" + e.Name() + "/stat")
		if err != nil {
			continue // exited while we looked
		}
		// Fields after the parenthesised command: state, ppid, ...
		fields := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
		if len(fields) > 1 && fields[1] == self {
			kids = append(kids, e.Name())
		}
	}
	return kids
}

// TestFailingRunLeavesNothing runs workloads that fail their correctness
// check, and then checks nothing they started is still alive.
func TestFailingRunLeavesNothing(t *testing.T) {
	leaks := newLeakCheck(t)
	for _, name := range []string{"churn-small", "ring-grid"} {
		for _, trace := range []bool{false, true} {
			opts := tinyOptions(t, trace)
			opts.onListen = leaks.onListen
			opts.corruptFrame = func(_, frame int, b []byte) []byte {
				if frame == 1 {
					return []byte("garbage\n")
				}
				return b
			}
			opts.corruptRing = func(_ int, res []dist.RingResult) { res[0].NE = !res[0].NE }
			res, _, err := run(context.Background(), tiny(t, name), opts)
			if err != nil {
				t.Fatal(err)
			}
			if res.Correct {
				t.Errorf("%s trace=%v: corrupted run reported correct", name, trace)
			}
		}
	}
	leaks.verify(t)
}

// TestStoppedRunLeavesNothing cancels runs in the middle — the timeout
// path — and checks they end promptly with nothing left alive.
func TestStoppedRunLeavesNothing(t *testing.T) {
	leaks := newLeakCheck(t)
	for _, name := range []string{"churn-small", "churn-large", "ring-grid"} {
		for _, trace := range []bool{false, true} {
			opts := tinyOptions(t, trace)
			opts.seconds = time.Minute
			opts.onListen = leaks.onListen
			ctx, cancel := context.WithCancel(context.Background())
			opts.onSetup = func() { time.AfterFunc(50*time.Millisecond, cancel) }
			start := time.Now()
			_, _, err := run(ctx, tiny(t, name), opts)
			cancel()
			if !errors.Is(err, context.Canceled) {
				t.Errorf("%s trace=%v: err = %v, want context.Canceled", name, trace, err)
			}
			if d := time.Since(start); d > 10*time.Second {
				t.Errorf("%s trace=%v: stopping took %v", name, trace, d)
			}
		}
	}
	leaks.verify(t)
}

// TestSignalStopsRun sends this process SIGTERM once set-up is done: the
// run must end without printing a result, exit non-zero, and leave
// nothing alive.
func TestSignalStopsRun(t *testing.T) {
	leaks := newLeakCheck(t)
	for _, name := range []string{"churn-small", "ring-grid"} {
		var stdout, stderr bytes.Buffer
		seams := options{
			onListen: leaks.onListen,
			onSetup: func() {
				if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
					t.Error(err)
				}
			},
		}
		start := time.Now()
		code := realMain([]string{"--workload", name, "--seed", "2", "--seconds", "60", "--trace", "0"}, &stdout, &stderr, seams)
		if code == 0 || stdout.Len() != 0 {
			t.Errorf("%s: exit %d after SIGTERM, stdout %q", name, code, stdout.String())
		}
		if d := time.Since(start); d > 30*time.Second {
			t.Errorf("%s: stopping took %v", name, d)
		}
	}
	leaks.verify(t)
}
