package dist

import (
	"errors"
	"net"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestRunLocalReleasesPipes pins that finished in-process runs leave
// nothing reachable: the per-message time bound must not keep closed pipes
// alive until it would have fired. A pending timer per pipe holds about
// 20 KB per run of this game for the whole 10 s default timeout, so
// hundreds of back-to-back runs (a batched ring grid) would grow the heap
// linearly.
func TestRunLocalReleasesPipes(t *testing.T) {
	g := testGame(t, 10, 8, 4)
	policies := UniformPolicies(g.Users(), func(int) Policy { return &GreedyPolicy{} })
	run := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := RunLocal(g, policies); err != nil {
				t.Fatal(err)
			}
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	run(20) // warm pools and lazily built tables
	before := heap()
	const runs = 300
	run(runs)
	after := heap()
	const limit = 2 << 20
	if after > before && after-before > limit {
		t.Fatalf("%d runs left %d KB live (limit %d KB): finished pipes are still reachable",
			runs, (after-before)>>10, limit>>10)
	}
}

// TestCoordinatorTimesOutSilentPeer: a peer that never reads makes Run fail
// within the configured bound, with an error that says it timed out.
func TestCoordinatorTimesOutSilentPeer(t *testing.T) {
	g := testGame(t, 2, 2, 1)
	const timeout = 50 * time.Millisecond
	co, err := NewCoordinator(g, WithTimeout(timeout))
	if err != nil {
		t.Fatal(err)
	}
	conns := make([]net.Conn, g.Users())
	for i := range conns {
		server, client := net.Pipe()
		defer client.Close() // the silent agent end: never read
		conns[i] = server
	}
	start := time.Now()
	_, _, err = co.Run(conns)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("Run succeeded against silent peers")
	}
	if !strings.Contains(err.Error(), "timed out") || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want a timeout", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("Run took %v to give up with a %v bound", elapsed, timeout)
	}
}

// TestAgentTimesOutSilentCoordinator: the agent side applies the same
// bound while it waits for the hello and for tokens.
func TestAgentTimesOutSilentCoordinator(t *testing.T) {
	server, client := net.Pipe()
	defer server.Close()
	start := time.Now()
	_, err := RunAgent(client, &GreedyPolicy{}, 50*time.Millisecond)
	if err == nil || !strings.Contains(err.Error(), "timed out") || !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("err = %v, want a timeout", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("RunAgent took %v to give up", elapsed)
	}
}
