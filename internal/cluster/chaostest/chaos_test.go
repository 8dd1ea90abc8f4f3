package chaostest

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"metajit/internal/bench"
	"metajit/internal/harness"
)

// detExec is a deterministic stand-in executor: the result is a pure
// function of the cell, so the oracle and any number of re-simulations
// (after restarts, corruption fallbacks, failovers) agree bit-for-bit —
// exactly the property the real simulator has, at nanosecond cost.
func detExec(p *bench.Program, kind harness.VMKind, opt harness.Options) (*harness.Result, error) {
	h := sha256.Sum256([]byte(fmt.Sprintf("%s|%s|%d", p.Name, kind, opt.Threshold)))
	res := &harness.Result{Bench: p.Name, VM: kind}
	res.Checksum = int64(binary.BigEndian.Uint64(h[:8]))
	res.Instrs = binary.BigEndian.Uint64(h[8:16])%1e9 + 1
	res.Cycles = float64(res.Instrs) * 1.618
	res.Bytecodes = res.Instrs / 5
	res.HeapChecksum = binary.BigEndian.Uint64(h[16:24])
	res.GC.Minor = uint64(h[24])
	res.Total.Instrs = res.Instrs
	res.Total.Cycles = res.Cycles
	res.EngStats.LoopsCompiled = int(h[25] % 9)
	return res, nil
}

// cellBodies is the request population: a spread of benchmarks across
// both JIT VM kinds, enough cells that every worker owns several.
func cellBodies() []string {
	var out []string
	for _, b := range []string{"telco", "chaos", "nbody", "richards", "float", "ai"} {
		for _, vm := range []string{"pypy", "pypy-tiered"} {
			out = append(out, fmt.Sprintf(`{"bench":%q,"vm":%q}`, b, vm))
		}
	}
	return out
}

// TestChaosSchedules is the fault-schedule table. Every scenario runs
// the full cell population through the cluster for several rounds,
// applying its fault actions between rounds; MustEventually verifies
// the invariant — accepted ⇒ byte-identical to the single-process
// oracle — on every accepted response along the way.
func TestChaosSchedules(t *testing.T) {
	cells := cellBodies()
	type scenario struct {
		name   string
		plan   Plan
		rounds int
		// between runs after each round (before the next), applying the
		// schedule's fault actions.
		between func(t *testing.T, c *Cluster, round int, rng *rand.Rand)
		// exactSims asserts the strongest form of cluster-wide dedup:
		// every cell simulated exactly once across the whole schedule.
		// Only claimable when no fault can force a re-simulation (drops
		// before store writes, corruption).
		exactSims bool
	}
	killRestart := func(t *testing.T, c *Cluster, round int, rng *rand.Rand) {
		switch round {
		case 0:
			c.Kill("w0")
		case 1:
			c.Restart("w0")
			c.Kill("w2")
		case 2:
			c.Restart("w2")
		}
	}
	corrupt := func(t *testing.T, c *Cluster, round int, rng *rand.Rand) {
		for i := 0; i < 3; i++ {
			c.CorruptRandomBlob(rng)
		}
	}
	scenarios := []scenario{
		{name: "no-faults", rounds: 3, exactSims: true},
		{name: "kill-restart", rounds: 4, between: killRestart, exactSims: true},
		{name: "drop-before", plan: Plan{DropBefore: 0.4}, rounds: 3},
		{name: "drop-after", plan: Plan{DropAfter: 0.4}, rounds: 3},
		{name: "delays", plan: Plan{MaxDelay: 2 * time.Millisecond}, rounds: 2, exactSims: true},
		{name: "corrupt-store", rounds: 4, between: corrupt},
		{name: "combined", plan: Plan{DropBefore: 0.2, DropAfter: 0.2, MaxDelay: time.Millisecond}, rounds: 4,
			between: func(t *testing.T, c *Cluster, round int, rng *rand.Rand) {
				killRestart(t, c, round, rng)
				corrupt(t, c, round, rng)
			}},
	}
	for _, sc := range scenarios {
		for _, seed := range []int64{1, 42} {
			sc, seed := sc, seed
			t.Run(fmt.Sprintf("%s/seed=%d", sc.name, seed), func(t *testing.T) {
				t.Parallel()
				c := New(t, 3, seed, sc.plan, detExec)
				rng := rand.New(rand.NewSource(seed))
				for round := 0; round < sc.rounds; round++ {
					var wg sync.WaitGroup
					for _, body := range cells {
						body := body
						wg.Add(1)
						go func() {
							defer wg.Done()
							c.MustEventually(body, 100)
						}()
					}
					wg.Wait()
					if sc.between != nil {
						sc.between(t, c, round, rng)
					}
				}
				if sims := c.Simulations(); sc.exactSims && sims != len(cells) {
					t.Errorf("cluster simulated %d times for %d cells — dedup/store leak under %q", sims, len(cells), sc.name)
				} else if sims == 0 {
					t.Error("nothing simulated — the schedule tested nothing")
				}
			})
		}
	}
}

// TestChaosRestartServesFromStore pins the restart semantics directly:
// a restarted worker has lost its memo but not the store, so the cells
// it computed in its previous life are served (source "store"), not
// re-simulated.
func TestChaosRestartServesFromStore(t *testing.T) {
	c := New(t, 3, 5, Plan{}, detExec)
	cells := cellBodies()
	for _, body := range cells {
		c.MustEventually(body, 10)
	}
	simsBefore := c.Simulations()
	for _, h := range c.Hosts() {
		c.Kill(h)
		c.Restart(h)
	}
	for _, body := range cells {
		c.MustEventually(body, 10)
	}
	if sims := c.Simulations(); sims != simsBefore {
		t.Fatalf("full-cluster restart re-simulated: %d → %d sims (store ignored)", simsBefore, sims)
	}
}

// TestChaosRealSimulationAnchor runs a small schedule against the REAL
// simulator — no fakes anywhere — with lost replies and a mid-schedule
// kill/restart. This anchors the whole chaos layer to the actual
// system: the byte-identity invariant holds for genuine simulation
// results, and the store dedups real work across worker lives.
func TestChaosRealSimulationAnchor(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulations in -short mode")
	}
	c := New(t, 3, 7, Plan{DropAfter: 0.3}, nil)
	var cells []string
	for _, b := range []string{"telco", "chaos"} {
		for _, vm := range []string{"pypy", "pypy-tiered"} {
			cells = append(cells, fmt.Sprintf(`{"bench":%q,"vm":%q}`, b, vm))
		}
	}
	run := func() {
		var wg sync.WaitGroup
		for _, body := range cells {
			body := body
			wg.Add(1)
			go func() {
				defer wg.Done()
				c.MustEventually(body, 50)
			}()
		}
		wg.Wait()
	}
	run()
	c.Kill("w1")
	run()
	c.Restart("w1")
	run()
	// Reply drops lose responses, never work: with the store shared and
	// the restart memo-less, each real cell still simulated exactly once
	// in the serving cluster (the oracle runner's sims are separate).
	if sims := c.Simulations(); sims != len(cells) {
		t.Fatalf("real schedule simulated %d times for %d cells", sims, len(cells))
	}
}
