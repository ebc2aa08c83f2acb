package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/multiradio/chanalloc/internal/dist"
	"github.com/multiradio/chanalloc/internal/engine"
	"github.com/multiradio/chanalloc/internal/obs"
)

const (
	// clusterWorkers is the number of JoinAndServe goroutines a cluster
	// rig starts, and inProcessWorkers the pool of the in-process rung that
	// runs the same batch; both constants, never NumCPU.
	clusterWorkers   = 2
	inProcessWorkers = 2
	// joinWait bounds how long a batch waits with no worker connected. It
	// only matters when a rig is torn down mid-batch (timeout or signal):
	// the batch then fails this soon instead of after the 30s default.
	joinWait = 2 * time.Second
	// registerTimeout bounds the wait for workers to register.
	registerTimeout = 10 * time.Second
)

// ringInput is the E12 token-ring grid replicated into one batch, plus the
// reference results of the in-process backend at the same seed.
type ringInput struct {
	specs []dist.RingSpec
	grid  int // distinct specs: specs[:grid] is one copy of the grid
	seed  uint64
	ref   [][]byte // reference result per job, JSON
}

// e12Grid is the game × policy-mix grid of experiment E12 at tdma:1.
func e12Grid() []dist.RingSpec {
	games := []struct{ n, c, k int }{{4, 4, 2}, {5, 4, 3}, {7, 6, 4}, {10, 8, 4}, {12, 8, 5}}
	rate := dist.RateSpec{Kind: "tdma", R0: 1}
	var specs []dist.RingSpec
	for _, g := range games {
		mixed := make([]string, g.n)
		for u := range mixed {
			mixed[u] = dist.PolicyBestResponse
			if u%2 == 0 {
				mixed[u] = dist.PolicyGreedyRandom
			}
		}
		for _, policies := range [][]string{{dist.PolicyGreedy}, {dist.PolicyBestResponse}, mixed} {
			specs = append(specs, dist.RingSpec{Users: g.n, Channels: g.c, Radios: g.k, Rate: rate, Policies: policies})
		}
	}
	return specs
}

// newRingInput replicates the grid and computes the reference on the
// in-process backend. Every reference run must converge to an equilibrium.
func newRingInput(replicas int, seed uint64) (*ringInput, error) {
	grid := e12Grid()
	in := &ringInput{grid: len(grid), seed: seed}
	for r := 0; r < replicas; r++ {
		in.specs = append(in.specs, grid...)
	}
	res, _, err := dist.RunRingBatch(engine.NewInProcess(), in.specs, engine.Seed(seed), engine.Workers(inProcessWorkers))
	if err != nil {
		return nil, fmt.Errorf("perfbench: ring reference: %w", err)
	}
	for j, r := range res {
		if !r.Converged || !r.NE {
			return nil, fmt.Errorf("perfbench: ring reference job %d: converged=%v ne=%v", j, r.Converged, r.NE)
		}
		b, err := json.Marshal(r)
		if err != nil {
			return nil, err
		}
		in.ref = append(in.ref, b)
	}
	return in, nil
}

// check gates one batch's results against the reference, byte for byte,
// and returns the number of failed jobs.
func (e *runEnv) checkRing(in *ringInput, batch int, res []dist.RingResult) int {
	if e.opts.corruptRing != nil {
		e.opts.corruptRing(batch, res)
	}
	if len(res) != len(in.ref) {
		e.mismatch("ring batch %d: %d results, want %d", batch, len(res), len(in.ref))
		return len(in.ref)
	}
	failed := 0
	for j, r := range res {
		b, err := json.Marshal(r)
		if err != nil || !bytes.Equal(b, in.ref[j]) {
			e.mismatch("ring batch %d job %d: got %s, want %s", batch, j, b, in.ref[j])
			failed++
		}
	}
	return failed
}

// countingListener counts every byte crossing the connections it accepts:
// the engine wire traffic, both directions.
type countingListener struct {
	net.Listener
	n atomic.Int64
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, n: &l.n}, nil
}

type countingConn struct {
	net.Conn
	n *atomic.Int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.n.Add(int64(n))
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.n.Add(int64(n))
	return n, err
}

// rig is a cluster coordinator on a loopback listener with its workers
// joined from goroutines of this process. close stops the workers, closes
// the coordinator and waits for every worker goroutine to return.
type rig struct {
	c       *engine.Cluster
	lis     *countingListener
	stop    chan struct{}
	workers sync.WaitGroup
	once    sync.Once
	err     error
}

// startRig opens the listener, starts the coordinator and the workers, and
// returns once every worker is registered, with the time that took.
func startRig(env *runEnv) (*rig, time.Duration, error) {
	start := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, fmt.Errorf("perfbench: listen: %w", err)
	}
	env.listened(ln.Addr())
	r := &rig{lis: &countingListener{Listener: ln}, stop: make(chan struct{})}
	r.c = engine.NewClusterOn(r.lis, engine.WithJoinWait(joinWait))
	for w := 0; w < clusterWorkers; w++ {
		r.workers.Add(1)
		go func() {
			defer r.workers.Done()
			if err := engine.JoinAndServe(r.c.Addr(), engine.WithJoinStop(r.stop)); err != nil {
				env.warn("perfbench: cluster worker: %v", err)
			}
		}()
	}
	// Cancellation tears the rig down, which ends a batch in flight. The
	// registration outlives a normal close; a second close is a no-op.
	context.AfterFunc(env.ctx, func() { r.close() })
	for len(r.c.Members()) < clusterWorkers {
		if err := env.ctx.Err(); err != nil {
			r.close()
			return nil, 0, err
		}
		if time.Since(start) > registerTimeout {
			r.close()
			return nil, 0, fmt.Errorf("perfbench: %d of %d cluster workers registered after %v",
				len(r.c.Members()), clusterWorkers, registerTimeout)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return r, time.Since(start), nil
}

func (r *rig) close() error {
	r.once.Do(func() {
		close(r.stop)
		r.err = r.c.Close()
		r.workers.Wait()
	})
	return r.err
}

// setupRigs sets a rig up setupReps times and keeps the last, returning the
// set-up times.
func setupRigs(env *runEnv, reps int) (*rig, []time.Duration, error) {
	var setups []time.Duration
	for i := 0; ; i++ {
		r, d, err := startRig(env)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, d)
		if i == reps-1 {
			env.setupDone()
			return r, setups, nil
		}
		if err := r.close(); err != nil {
			return nil, nil, err
		}
	}
}

// setupReps is how many times a ring run sets up a cluster rig; setup_s is
// the median. One set-up takes about half a millisecond, and goroutine
// scheduling spreads single samples widely, so it takes many.
const setupReps = 21

// clusterBatch runs the batch once on the rig and gates it.
func (in *ringInput) clusterBatch(env *runEnv, r *rig, batch int) (time.Duration, engine.Stats, error) {
	t0 := time.Now()
	res, st, err := dist.RunRingBatch(r.c, in.specs, engine.Seed(in.seed))
	d := time.Since(t0)
	if err != nil {
		if cerr := env.ctx.Err(); cerr != nil {
			return 0, st, cerr
		}
		return 0, st, fmt.Errorf("perfbench: cluster batch %d: %w", batch, err)
	}
	env.count(len(in.ref), env.checkRing(in, batch, res))
	return d, st, nil
}

// runRing is the untraced end-to-end run: set a rig up setupReps times,
// then run the batch through it until the time is up.
func runRing(env *runEnv, in *ringInput) (map[string]float64, error) {
	r, setups, err := setupRigs(env, setupReps)
	if err != nil {
		return nil, err
	}
	defer r.close()
	deadline := time.Now().Add(env.opts.seconds)
	var walls, jobs []time.Duration
	var total time.Duration
	for batch := 0; batch == 0 || time.Now().Before(deadline); batch++ {
		d, st, err := in.clusterBatch(env, r, batch)
		if err != nil {
			return nil, err
		}
		walls = append(walls, d)
		jobs = append(jobs, st.JobTimes...)
		total += d
	}
	env.detail["latency_samples"] = len(jobs)
	env.detail["batches"] = len(walls)
	return map[string]float64{
		"events_per_s": float64(len(jobs)) / total.Seconds(),
		"event_p50_us": us(quantile(jobs, 0.50)),
		"event_p99_us": us(quantile(jobs, 0.99)),
		"batch_s":      median(walls).Seconds(),
		"setup_s":      median(setups).Seconds(),
	}, r.close()
}

// ringLadder measures the batch path rung by rung on one input:
//
//	ring     each spec of one grid copy as its own one-spec batch (the task alone)
//	exec     the whole batch in-process on one worker (adds the batch's params to every job)
//	pool     the whole batch in-process on inProcessWorkers workers
//	cluster  the whole batch on the cluster rig (adds dispatch, wire codec, windows, fan-in)
//
// Like the live ladder it runs in rounds of one pass per rung until the
// time is up. Every batch is gated against the reference, and every
// one-spec ring must converge to an equilibrium. With gc set, the garbage
// collector's counters are read around the whole ladder.
func ringLadder(env *runEnv, in *ringInput, rec *recorder, budget time.Duration, gc *[2]runtime.MemStats) (map[string]float64, error) {
	rounds := 0
	batch := func(name string, b engine.Backend, opts ...engine.Option) (time.Duration, engine.Stats, error) {
		sp := rec.begin(name, int64(rounds), -1)
		t0 := time.Now()
		res, st, err := dist.RunRingBatch(b, in.specs, append(opts, engine.Seed(in.seed))...)
		d := time.Since(t0)
		rec.end(sp)
		if err != nil {
			return 0, st, fmt.Errorf("perfbench: %s: %w", name, err)
		}
		env.count(len(in.ref), env.checkRing(in, -1, res))
		return d, st, nil
	}

	r, _, err := startRig(env)
	if err != nil {
		return nil, err
	}
	defer r.close()
	if gc != nil {
		runtime.ReadMemStats(&gc[0])
	}
	obs0 := obs.Flat(obs.Snapshot())
	bytes0 := r.lis.n.Load()
	var clusterWalls, clusterJobs, poolWalls, execJobs, ringJobs []time.Duration
	var requeues, messages, ringRounds int
	for deadline := time.Now().Add(budget); rounds == 0 || time.Now().Before(deadline); rounds++ {
		if err := env.ctx.Err(); err != nil {
			return nil, err
		}
		sp := rec.begin("engine.batch_cluster", int64(rounds), -1)
		d, st, err := in.clusterBatch(env, r, rounds)
		rec.end(sp)
		if err != nil {
			return nil, err
		}
		clusterWalls = append(clusterWalls, d)
		clusterJobs = append(clusterJobs, st.JobTimes...)
		requeues += st.Requeues

		if d, _, err = batch("engine.batch_inprocess", engine.NewInProcess(), engine.Workers(inProcessWorkers)); err != nil {
			return nil, err
		}
		poolWalls = append(poolWalls, d)
		if _, st, err = batch("engine.batch_exec", engine.NewInProcess(), engine.Workers(1)); err != nil {
			return nil, err
		}
		execJobs = append(execJobs, st.JobTimes...)

		for j, spec := range in.specs[:in.grid] {
			sp := rec.begin("dist.ring", int64(j), -1)
			res, st, err := dist.RunRingBatch(engine.NewInProcess(), []dist.RingSpec{spec}, engine.Seed(in.seed), engine.Workers(1))
			rec.end(sp)
			if err != nil {
				return nil, fmt.Errorf("perfbench: one-spec ring: %w", err)
			}
			failed := 0
			if !res[0].Converged || !res[0].NE {
				env.mismatch("one-spec ring %+v: converged=%v ne=%v", spec, res[0].Converged, res[0].NE)
				failed = 1
			}
			env.count(1, failed)
			ringJobs = append(ringJobs, st.JobTimes[0])
			messages += res[0].Messages
			ringRounds += res[0].Rounds
		}
	}
	wire := r.lis.n.Load() - bytes0
	obs1 := obs.Flat(obs.Snapshot())
	if gc != nil {
		runtime.ReadMemStats(&gc[1])
	}
	if err := r.close(); err != nil {
		return nil, err
	}

	exec := mean(execJobs)
	ring := mean(ringJobs)
	pool := median(poolWalls)
	depthN := obs1["engine_peer_window_depth_count"] - obs0["engine_peer_window_depth_count"]
	depthSum := obs1["engine_peer_window_depth_sum"] - obs0["engine_peer_window_depth_sum"]
	env.detail["ring_ladder_rounds"] = rounds
	return map[string]float64{
		"engine.batch_inprocess_s":   pool.Seconds(),
		"engine.dispatch_overhead_s": (median(clusterWalls) - pool).Seconds(),
		"engine.job_exec_ms":         ms(exec),
		"engine.job_wait_ms":         ms(mean(clusterJobs) - exec),
		"engine.wire_bytes_per_job":  float64(wire) / float64(len(clusterJobs)),
		"engine.requeues":            float64(requeues),
		"engine.window_depth_mean":   float64(depthSum) / float64(max(depthN, 1)),
		"dist.ring_ms":               ms(ring),
		"engine.task_overhead_ms":    ms(exec - ring),
		"dist.messages_per_job":      float64(messages) / float64(len(ringJobs)),
		"dist.rounds_per_job":        float64(ringRounds) / float64(len(ringJobs)),
	}, nil
}
