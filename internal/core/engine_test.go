package core

import (
	"context"
	"testing"
	"unsafe"

	"repro/gen"
)

// TestTaskBytes pins the in-memory size of a phase-2 task to the
// taskBytes constant the retained-footprint accounting uses. If the
// task struct grows, update taskBytes alongside it.
func TestTaskBytes(t *testing.T) {
	if got := unsafe.Sizeof(task{}); got != taskBytes {
		t.Fatalf("unsafe.Sizeof(task{}) = %d, want taskBytes = %d", got, taskBytes)
	}
}

// TestEngineWarmRunsMatchTarjan re-runs a persistent engine on the
// same graphs many times: every piece of retained state (arena
// buffers, worker pools, task backing, queue, color/comp arrays) is
// reused, so any cross-run aliasing or stale-state bug shows up as a
// partition that diverges from Tarjan's.
func TestEngineWarmRunsMatchTarjan(t *testing.T) {
	big := gen.RMAT(gen.DefaultRMAT(11, 8, 6))
	small := gen.RMAT(gen.DefaultRMAT(8, 6, 7))
	for _, workers := range []int{1, 4} {
		en := NewEngine(Method2, Options{Workers: workers, Seed: 3})
		for round := 0; round < 4; round++ {
			res, err := en.Run(context.Background(), big, RunConfig{})
			if err != nil {
				t.Fatalf("workers=%d round=%d big: %v", workers, round, err)
			}
			checkAgainstTarjan(t, big, Method2, res)
			res, err = en.Run(context.Background(), small, RunConfig{})
			if err != nil {
				t.Fatalf("workers=%d round=%d small: %v", workers, round, err)
			}
			checkAgainstTarjan(t, small, Method2, res)
		}
		en.Close()
	}
}

// TestEngineShrinksUnderBudget verifies the retained-footprint
// contract: scratch grown by a large unbudgeted run counts against a
// later run's memory budget, and the engine sheds it (rather than
// failing or degrading the small run) when the budget cannot cover
// the old high-water state.
func TestEngineShrinksUnderBudget(t *testing.T) {
	big := gen.RMAT(gen.DefaultRMAT(13, 8, 3))
	small := gen.RMAT(gen.DefaultRMAT(8, 6, 4))

	en := NewEngine(Method2, Options{Workers: 2, Seed: 5})
	defer en.Close()
	if _, err := en.Run(context.Background(), big, RunConfig{}); err != nil {
		t.Fatalf("big run: %v", err)
	}
	grown := en.retainedBytes()
	if grown == 0 {
		t.Fatal("retainedBytes() = 0 after a large run; accounting is broken")
	}

	limit := EstimateMemory(small.NumNodes(), Method2, en.opt)
	if limit >= grown {
		t.Fatalf("test graphs too close in size: limit %d >= grown %d", limit, grown)
	}
	res, err := en.Run(context.Background(), small, RunConfig{MemoryLimit: limit})
	if err != nil {
		t.Fatalf("budgeted small run: %v", err)
	}
	if res.Degraded != "" {
		t.Fatalf("small run degraded (%q); shrink should have freed the budget", res.Degraded)
	}
	checkAgainstTarjan(t, small, Method2, res)
	if after := en.retainedBytes(); after > limit {
		t.Fatalf("retainedBytes() = %d after budgeted run, want <= %d", after, limit)
	}
}
