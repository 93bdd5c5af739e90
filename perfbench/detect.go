package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"repro/scc"
)

// phaseNames are the span names of the five Method 2 phases, in
// scc.Phase order, and phaseMetrics the per-layer metrics they give.
var (
	phaseNames = [scc.NumPhases]string{
		"trim.par_trim", "bfs.fwbw", "trim.post", "wcc", "worklist.recur",
	}
	phaseMetrics = [scc.NumPhases]string{
		"trim.par_trim_ms", "bfs.fwbw_ms", "trim.post_ms", "wcc.ms", "worklist.recur_ms",
	}
)

// phaseRecorder is the WithObserver phase recorder of the traced run:
// it turns PhaseStart/PhaseEnd events into spans under the Detect span.
// Phase events arrive from the run's coordinating goroutine only.
type phaseRecorder struct {
	tr     *tracer
	parent int64
	start  [scc.NumPhases]time.Time
	ms     [scc.NumPhases]float64
}

func (p *phaseRecorder) Observe(ev scc.Event) {
	if ev.Phase < 0 || ev.Phase >= int(scc.NumPhases) {
		return
	}
	switch ev.Type {
	case scc.EventPhaseStart:
		p.start[ev.Phase] = time.Now()
	case scc.EventPhaseEnd:
		end := time.Now()
		p.tr.record(0, p.parent, phaseNames[ev.Phase], p.start[ev.Phase], end)
		p.ms[ev.Phase] += float64(end.Sub(p.start[ev.Phase])) / 1e6
	}
}

// detectSlice runs the analog through the warm engine for d, closed
// loop from one caller, and checks every labeling against Tarjan
// outside the timed call.
func (b *bench) detectSlice(d time.Duration) {
	ctx := context.Background()
	eng, g := b.env.eng, b.env.detectG
	ds := &b.det
	deadline := time.Now().Add(d)
	for pass := 0; pass < 3 || time.Now().Before(deadline); pass++ {
		var opts []scc.RunOption
		var rec *phaseRecorder
		var m0, m1 runtime.MemStats
		id := b.tr.newID()
		if b.tr != nil {
			rec = &phaseRecorder{tr: b.tr, parent: id}
			opts = append(opts, scc.WithObserver(rec))
			runtime.ReadMemStats(&m0)
		}
		t0 := time.Now()
		res, err := eng.Detect(ctx, g, opts...)
		t1 := time.Now()
		if err != nil {
			b.tally.fail()
			continue
		}
		b.tally.ok()
		ds.times = append(ds.times, float64(t1.Sub(t0))/1e6)
		if b.tr != nil {
			runtime.ReadMemStats(&m1)
			b.tr.record(id, 0, "scc.Engine.Detect", t0, t1)
			ds.allocs = append(ds.allocs, float64(m1.Mallocs-m0.Mallocs))
			ds.bytes = append(ds.bytes, float64(m1.TotalAlloc-m0.TotalAlloc))
			for p := range ds.phaseMS {
				ds.phaseMS[p] = append(ds.phaseMS[p], rec.ms[p])
			}
			ds.last, ds.trials = res.Metrics, res.Phase1Trials
		}
		if !scc.SamePartition(res.Comp, b.detectOracle) {
			b.tally.mismatch()
		}
		b.lastComp = append(b.lastComp[:0], res.Comp...)
	}
}

// detectState accumulates the detect slices.
type detectState struct {
	times, allocs, bytes []float64
	phaseMS              [scc.NumPhases][]float64
	last                 scc.MetricsSnapshot
	trials               int
}

func (b *bench) finishDetect() error {
	ds := &b.det
	if len(ds.times) == 0 {
		return fmt.Errorf("detect: every pass failed")
	}
	b.put("detect_ms", median(ds.times), "ms")
	if b.tr == nil {
		return nil
	}
	for p, name := range phaseMetrics {
		b.put(name, median(ds.phaseMS[p]), "ms")
	}
	b.put("scc.allocs_per_detect", median(ds.allocs), "count")
	b.put("scc.bytes_per_detect", median(ds.bytes), "B")
	b.put("trim.rounds", float64(ds.last.TrimRounds), "count")
	b.put("trim.trimmed_nodes", float64(ds.last.TrimmedNodes), "count")
	b.put("bfs.levels", float64(ds.last.BFSLevels), "count")
	b.put("bfs.frontier_nodes", float64(ds.last.FrontierNodes), "count")
	b.put("core.phase1_trials", float64(ds.trials), "count")
	b.put("wcc.uf_find_hops", float64(ds.last.UFFindHops), "count")
	b.put("worklist.tasks", float64(ds.last.Tasks), "count")
	return nil
}
