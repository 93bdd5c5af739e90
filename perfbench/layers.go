package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/graph"
	"repro/internal/durable"
	"repro/scc"
)

// maxReachReplay bounds the in-process reachable replay.
const maxReachReplay = 2000

// replayReads replays the read section's query stream in-process
// against the server's current Snapshot, right after the section and
// before any write, so the answers are those the HTTP clients saw.
// cofHTTPUS is the HTTP componentof p50, from which the in-process cost
// is subtracted to give the HTTP overhead.
func (b *bench) replayReads(cofHTTPUS float64) {
	sn := b.env.read.srv.Snapshot()
	var reach, cof []query
	for _, q := range b.read.queries {
		switch {
		case q.kind == qReachable && len(reach) < maxReachReplay:
			reach = append(reach, q)
		case q.kind == qComponentOf:
			cof = append(cof, q)
		}
	}
	var trues int
	for _, q := range reach {
		t0 := time.Now()
		ok := sn.Reachable(q.u, q.v)
		b.tr.record(0, 0, "server.Snapshot.Reachable", t0, time.Now())
		if ok {
			trues++
		}
	}
	lat := b.tr.durationsMS("server.Snapshot.Reachable")
	b.put("server.reachable_us_p50", quantile(lat, 0.5)*1e3, "us")
	b.put("server.reachable_us_p99", quantile(lat, 0.99)*1e3, "us")
	b.put("scc.reach_true_frac", float64(trues)/float64(max(len(reach), 1)), "frac")

	// Components marked per query: the closure ReachableInto walks,
	// which has no early exit at the target.
	var scratch scc.ReachScratch
	var marked int
	for _, q := range reach {
		t0 := time.Now()
		seen := sn.Cond.ReachableInto(sn.Cond.NodeComp[q.u], &scratch)
		b.tr.record(0, 0, "scc.Condensed.ReachableInto", t0, time.Now())
		for _, s := range seen {
			if s {
				marked++
			}
		}
	}
	b.put("scc.reach_visited", float64(marked)/float64(max(len(reach), 1)), "count")

	// One componentof costs about as much as reading the clock, so it
	// is timed in batches over the whole recorded stream.
	var perCall []float64
	var sink int32
	for rep := 0; rep < 5 && len(cof) > 0; rep++ {
		t0 := time.Now()
		for _, q := range cof {
			sink += sn.ComponentOf(int64(q.u))
		}
		t1 := time.Now()
		b.tr.record(0, 0, "server.Snapshot.ComponentOf.batch", t0, t1)
		perCall = append(perCall, float64(t1.Sub(t0))/float64(len(cof)))
	}
	_ = sink
	cofNS := median(perCall)
	b.put("server.componentof_ns", cofNS, "ns")
	b.put("http.overhead_us_p50", cofHTTPUS-cofNS/1e3, "us")
}

// layerReplays runs the remaining layers on their own over this run's
// inputs: Condense on the analog, and the batch stream into a
// standalone durable.Store. (makeBatches already applied the stream to
// a standalone incr.Maintainer.)
func (b *bench) layerReplays(runDir string) error {
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		if _, err := scc.Condense(b.env.detectG, b.lastComp); err != nil {
			return fmt.Errorf("condense replay: %w", err)
		}
		b.tr.record(0, 0, "scc.Condense", t0, time.Now())
	}
	b.put("scc.condense_ms", median(b.tr.durationsMS("scc.Condense")), "ms")

	return b.durableReplay(filepath.Join(runDir, "replay-wal"), b.streamFinal)
}

// maxAppendReplay bounds the paced WAL replay.
const maxAppendReplay = 300

// durableReplay appends the start of the batch stream to a fresh store
// under the mixed load's fsync policy, paced at the workload's write
// rate so that the same share of appends pays an fsync, then snapshots
// final.
func (b *bench) durableReplay(dir string, final *graph.Graph) error {
	store, err := durable.Open(durable.Options{Dir: dir, Fsync: durable.FsyncInterval, SnapshotEvery: -1})
	if err != nil {
		return err
	}
	defer store.Close()
	if _, err := store.Recover(context.Background()); err != nil {
		return err
	}
	var seq uint64
	var updates int
	start := time.Now()
	for j, bt := range b.batches[:min(len(b.batches), maxAppendReplay)] {
		sleepUntil(start.Add(time.Duration(float64(j) / b.cfg.w.writeRate * float64(time.Second))))
		t0 := time.Now()
		if seq, err = store.AppendUpdates(bt.ups); err != nil {
			return fmt.Errorf("durable replay: %w", err)
		}
		b.tr.record(0, 0, "durable.Store.AppendUpdates", t0, time.Now())
		updates += len(bt.ups)
	}
	walBytes, err := walSize(dir)
	if err != nil {
		return err
	}
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		if err := store.WriteSnapshot(final, seq); err != nil {
			return fmt.Errorf("durable replay: %w", err)
		}
		b.tr.record(0, 0, "durable.Store.WriteSnapshot", t0, time.Now())
	}
	app := b.tr.durationsMS("durable.Store.AppendUpdates")
	b.put("durable.append_us_p50", quantile(app, 0.5)*1e3, "us")
	b.put("durable.append_us_p99", quantile(app, 0.99)*1e3, "us")
	b.put("durable.wal_bytes_per_update", float64(walBytes)/float64(max(updates, 1)), "B")
	b.put("durable.snapshot_ms", median(b.tr.durationsMS("durable.Store.WriteSnapshot")), "ms")
	return nil
}

// walSize sums the sizes of the WAL segments in dir.
func walSize(dir string) (int64, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var total int64
	for _, e := range entries {
		if !strings.HasPrefix(e.Name(), "wal-") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		total += info.Size()
	}
	return total, nil
}

// detectCopy is the incr.DetectFunc over the warm engine: engine-owned
// labels are copied out because the maintainer keeps them.
func (b *bench) detectCopy(ctx context.Context, g *graph.Graph) ([]int32, error) {
	res, err := b.env.eng.Detect(ctx, g)
	if err != nil {
		return nil, err
	}
	return append([]int32(nil), res.Comp...), nil
}

// buildCond is the incr.BuildFunc: detect and condense.
func (b *bench) buildCond(ctx context.Context, g *graph.Graph) (*scc.Condensed, error) {
	comp, err := b.detectCopy(ctx, g)
	if err != nil {
		return nil, err
	}
	return scc.Condense(g, comp)
}
