package experiments

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/graph"
	"repro/internal/durable"
	"repro/internal/server"
	"repro/internal/verify"
	"repro/scc"
)

// RecoverBenchConfig configures the crash-recovery harness behind the
// recover suite of BENCH_serve.json: a durable in-process sccserve
// killed at every mutating-filesystem-op ordinal of a fixed update
// workload, then restarted and checked against a Tarjan oracle.
type RecoverBenchConfig struct {
	// Dataset is the suite graph to serve (default "flickr").
	Dataset string
	// Scale is the dataset scale factor.
	Scale float64
	// Workers is the detection worker count (0 = GOMAXPROCS).
	Workers int
	// Batches is the number of durable update batches in the workload
	// (default 6).
	Batches int
	// SnapshotEvery is the store's snapshot cadence in batches
	// (default 2, so the matrix crosses several snapshot writes).
	SnapshotEvery int64
	// Seed drives pivot selection and the synthetic update batches.
	Seed int64
	// Dir is the scratch root for the per-crash-point durability
	// directories (default: a fresh temp dir, removed afterwards).
	Dir string
}

func (c RecoverBenchConfig) withDefaults() RecoverBenchConfig {
	if c.Dataset == "" {
		c.Dataset = "flickr"
	}
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.Batches <= 0 {
		c.Batches = 6
	}
	if c.SnapshotEvery == 0 {
		c.SnapshotEvery = 2
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// RecoverPoint is one crash point's outcome: the server was killed at
// the CrashOp-th mutating FS op, restarted over the surviving files,
// and compared against a Tarjan run over exactly the durable prefix.
type RecoverPoint struct {
	CrashOp      int64 `json:"crash_op"`
	AckedBatches int   `json:"acked_batches"`
	RecoveredSeq int64 `json:"recovered_seq"`
	Replayed     int64 `json:"wal_records_replayed"`
	Truncated    bool  `json:"wal_truncated" unit:"bool"`
	RecoveryMS   int64 `json:"recovery_ms" unit:"ms"`

	// LabelsMatch: the recovered SCC labeling equals the oracle's over
	// the base graph plus the recovered batch prefix.
	LabelsMatch bool `json:"labels_match" unit:"bool"`
	// DurabilityOK: every acknowledged batch survived the crash
	// (recovered_seq >= acked_batches).
	DurabilityOK bool `json:"durability_ok" unit:"bool"`
	// EpochPreCrash is the last epoch a client observed before the
	// kill; EpochRecovered must not be below it.
	EpochPreCrash  int64 `json:"epoch_pre_crash"`
	EpochRecovered int64 `json:"epoch_recovered"`
}

// RecoverReport is the recover suite of BENCH_serve.json.
type RecoverReport struct {
	Dataset       string
	Nodes         int
	Edges         int64
	Scale         float64
	Batches       int
	SnapshotEvery int64
	Seed          int64

	// CrashPoints is the total op budget of the clean workload — one
	// point per ordinal.
	CrashPoints   int
	MaxRecoveryMS int64
	AnyTruncated  bool
	Points        []RecoverPoint
}

// Records returns the report as the recover suite: one case per crash
// point, named crash/<op> and also carrying its epoch advance
// (recovered minus pre-crash), plus a matrix case with the crash-point
// count, the number of recorded points minus it, the worst recovery
// time and whether any point truncated the WAL.
func (r RecoverReport) Records() RecordSet {
	var recs []Record
	for _, p := range r.Points {
		c := fmt.Sprintf("crash/%d", p.CrashOp)
		recs = append(recs, rowRecords(c, p)...)
		recs = append(recs, Record{c, "epoch_advance", float64(p.EpochRecovered - p.EpochPreCrash), "count"})
	}
	recs = append(recs,
		Record{"matrix", "crash_points", float64(r.CrashPoints), "count"},
		Record{"matrix", "points_minus_crash_points", float64(len(r.Points) - r.CrashPoints), "count"},
		Record{"matrix", "max_recovery_ms", float64(r.MaxRecoveryMS), "ms"},
		Record{"matrix", "any_truncated", bit(r.AnyTruncated), "bool"})
	return newRecordSet(map[string]any{
		"dataset": r.Dataset, "nodes": r.Nodes, "edges": r.Edges, "scale": r.Scale,
		"batches": r.Batches, "snapshot_every": r.SnapshotEvery, "seed": r.Seed,
	}, recs)
}

// recoverLife drives one process lifetime: open the store over fsys,
// serve, and push batches until the store dies or the workload ends.
// A crash anywhere — including during recovery — is not an error; the
// lifetime just ends early.
func recoverLife(cfg RecoverBenchConfig, g *graph.Graph, dir string,
	fsys durable.FS, batches []string) (acked int, epoch int64, err error) {
	st, err := durable.Open(durable.Options{
		Dir:           dir,
		SnapshotEvery: cfg.SnapshotEvery,
		FS:            fsys,
		Logf:          func(string, ...any) {},
	})
	if err != nil {
		return 0, 0, nil // crashed inside Open: nothing was acked
	}
	defer st.Close()
	srv, err := server.New(server.Config{
		Options: scc.Options{Algorithm: scc.Method2, Workers: cfg.Workers, Seed: cfg.Seed},
		Durable: st,
		Logf:    func(string, ...any) {},
	}, g)
	if err != nil {
		return 0, 0, err
	}
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if err := srv.WaitReady(ctx); err != nil {
		return 0, 0, nil // crashed during recovery: nothing was acked
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	epoch = srv.Snapshot().Epoch
	for _, b := range batches {
		resp, err := http.Post(ts.URL+"/update?wait=1", "text/plain", strings.NewReader(b))
		if err != nil {
			return acked, epoch, err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return acked, epoch, nil // store died mid-workload
		}
		acked++
		if e := srv.Snapshot().Epoch; e > epoch {
			epoch = e
		}
	}
	return acked, epoch, nil
}

// RecoverSweep runs the crash-point matrix: a probe lifetime over a
// counting filesystem fixes the op budget, then every ordinal gets a
// fresh directory, a lifetime crashed exactly there, and a clean
// restart verified for durability, label correctness, and epoch
// monotonicity.
func RecoverSweep(cfg RecoverBenchConfig) (RecoverReport, error) {
	cfg = cfg.withDefaults()
	d, err := Find(cfg.Dataset)
	if err != nil {
		return RecoverReport{}, err
	}
	g := d.Build(cfg.Scale)
	rep := RecoverReport{
		Dataset: cfg.Dataset, Nodes: g.NumNodes(), Edges: g.NumEdges(),
		Scale: cfg.Scale, Batches: cfg.Batches, SnapshotEvery: cfg.SnapshotEvery,
		Seed: cfg.Seed,
	}

	root := cfg.Dir
	if root == "" {
		root, err = os.MkdirTemp("", "sccrecover")
		if err != nil {
			return rep, err
		}
		defer os.RemoveAll(root)
	}

	// Synthetic update batches: random edges among existing nodes, so
	// the oracle graph is just base edges + the durable prefix.
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := g.NumNodes()
	batchBodies := make([]string, cfg.Batches)
	batchEdges := make([][]graph.Edge, cfg.Batches)
	for i := range batchBodies {
		var sb strings.Builder
		for j := 0; j < 4; j++ {
			u, v := rng.Intn(n), rng.Intn(n)
			fmt.Fprintf(&sb, "%d %d\n", u, v)
			batchEdges[i] = append(batchEdges[i], graph.Edge{From: graph.NodeID(u), To: graph.NodeID(v)})
		}
		batchBodies[i] = sb.String()
	}
	baseEdges := g.AppendEdges(nil)

	// oracle memoizes the Tarjan labeling per durable prefix length.
	oracleMemo := make(map[int][]int32)
	oracle := func(prefix int) ([]int32, error) {
		if comp, ok := oracleMemo[prefix]; ok {
			return comp, nil
		}
		edges := append(append([]graph.Edge{}, baseEdges...), flattenBatches(batchEdges[:prefix])...)
		res, err := scc.Detect(graph.FromEdges(n, edges), scc.Options{Algorithm: scc.Tarjan})
		if err != nil {
			return nil, err
		}
		oracleMemo[prefix] = res.Comp
		return res.Comp, nil
	}

	// Probe lifetime: count the clean workload's mutating FS ops.
	probe := durable.NewFaultFS(durable.OSFS{}, durable.FaultConfig{})
	acked, _, err := recoverLife(cfg, g, filepath.Join(root, "probe"), probe, batchBodies)
	if err != nil {
		return rep, fmt.Errorf("recover probe: %w", err)
	}
	if acked != cfg.Batches {
		return rep, fmt.Errorf("recover probe acked %d/%d batches", acked, cfg.Batches)
	}
	total := probe.Ops()
	rep.CrashPoints = int(total)

	for ord := int64(1); ord <= total; ord++ {
		dir := filepath.Join(root, fmt.Sprintf("crash-%04d", ord))
		ffs := durable.NewFaultFS(durable.OSFS{}, durable.FaultConfig{CrashAt: ord})
		acked, preEpoch, err := recoverLife(cfg, g, dir, ffs, batchBodies)
		if err != nil {
			return rep, fmt.Errorf("crash point %d: %w", ord, err)
		}
		if !ffs.Crashed() {
			return rep, fmt.Errorf("crash point %d never fired (%d ops)", ord, ffs.Ops())
		}

		// Clean restart over the crashed directory.
		st, err := durable.Open(durable.Options{
			Dir:           dir,
			SnapshotEvery: cfg.SnapshotEvery,
			Logf:          func(string, ...any) {},
		})
		if err != nil {
			return rep, fmt.Errorf("crash point %d: reopen: %w", ord, err)
		}
		srv, err := server.New(server.Config{
			Options: scc.Options{Algorithm: scc.Method2, Workers: cfg.Workers, Seed: cfg.Seed},
			Durable: st,
			Logf:    func(string, ...any) {},
		}, g)
		if err != nil {
			st.Close()
			return rep, fmt.Errorf("crash point %d: restart: %w", ord, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		readyErr := srv.WaitReady(ctx)
		cancel()
		if readyErr != nil {
			srv.Close()
			st.Close()
			return rep, fmt.Errorf("crash point %d: recovery after crash: %w", ord, readyErr)
		}

		seq := int64(st.LastSeq())
		ms, replayed, truncated := srv.RecoveryStats()
		want, err := oracle(int(seq))
		if err != nil {
			srv.Close()
			st.Close()
			return rep, fmt.Errorf("crash point %d: oracle: %w", ord, err)
		}
		sn := srv.Snapshot()
		pt := RecoverPoint{
			CrashOp:        ord,
			AckedBatches:   acked,
			RecoveredSeq:   seq,
			Replayed:       replayed,
			Truncated:      truncated,
			RecoveryMS:     ms,
			LabelsMatch:    verify.SamePartition(sn.Cond.NodeComp, want),
			DurabilityOK:   seq >= int64(acked),
			EpochPreCrash:  preEpoch,
			EpochRecovered: sn.Epoch,
		}
		srv.Close()
		st.Close()
		rep.Points = append(rep.Points, pt)
		if ms > rep.MaxRecoveryMS {
			rep.MaxRecoveryMS = ms
		}
		if truncated {
			rep.AnyTruncated = true
		}
	}
	return rep, nil
}

func flattenBatches(batches [][]graph.Edge) []graph.Edge {
	var out []graph.Edge
	for _, b := range batches {
		out = append(out, b...)
	}
	return out
}

// FormatRecover renders the crash matrix as an aligned text table.
func FormatRecover(rep RecoverReport) string {
	out := fmt.Sprintf("crash-recovery matrix (%s: %d nodes, %d edges; %d batches, snapshot every %d):\n",
		rep.Dataset, rep.Nodes, rep.Edges, rep.Batches, rep.SnapshotEvery)
	out += fmt.Sprintf("%6s %6s %5s %8s %6s %8s %7s %8s %12s\n",
		"crash", "acked", "seq", "replayed", "trunc", "recover", "labels", "durable", "epoch")
	for _, p := range rep.Points {
		out += fmt.Sprintf("%6d %6d %5d %8d %6v %7dms %7v %8v %5d→%-5d\n",
			p.CrashOp, p.AckedBatches, p.RecoveredSeq, p.Replayed, p.Truncated,
			p.RecoveryMS, p.LabelsMatch, p.DurabilityOK, p.EpochPreCrash, p.EpochRecovered)
	}
	out += fmt.Sprintf("%d crash points, max recovery %dms, truncation exercised: %v\n",
		rep.CrashPoints, rep.MaxRecoveryMS, rep.AnyTruncated)
	return out
}
