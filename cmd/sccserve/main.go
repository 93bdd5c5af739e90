// Command sccserve runs the SCC query service: it loads a graph, pins
// a detection engine, and serves component / same-SCC / reachability
// queries over HTTP from epoch snapshots, staying up — and keeping the
// last good epoch serving — through rebuild failures, overload, and
// hostile inputs.
//
// Usage:
//
//	sccserve -graph graph.sccg
//	sccserve -addr :8080 -graph edges.txt -format edgelist -workers 8
//	sccserve -graph web.mtx -format mm -max-nodes 4M -max-edges 64M
//	sccserve -graph g.sccg -mem-limit 256M -stall-timeout 10s -max-epoch-age 1m
//
// Endpoints: GET /componentof?node=N, /same?u=U&v=V,
// /reachable?from=U&to=V, /healthz, /readyz, /stats; POST /update
// (signed update lines — "u v" or "+u v" inserts, "-u v" deletes —
// rebuilds asynchronously; ?wait=1 blocks for the new epoch) and POST
// /scc (ad-hoc detection on a posted edge list).
//
// Epochs are produced incrementally by default: each accepted update
// is classified (intra-SCC insert, condensation-edge insert/delete,
// cycle-creating merge, component-splitting delete) and only the
// affected region is recomputed; every -incr-verify-every incremental
// epochs a full detection cross-checks the maintained labeling.
// -no-incr restores the full rebuild-per-epoch behavior.
//
// Overload contract: when the in-flight cap and its bounded queue are
// saturated, requests are shed with 429 and a Retry-After hint; while
// draining, new requests get 503. A rebuild that fails — panic, stall,
// memory budget, malformed result — is rolled back: the previous epoch
// keeps serving and /stats counts the failure. SIGTERM/SIGINT starts a
// graceful drain: admission stops, in-flight requests finish (bounded
// by -drain-timeout), then the process exits.
//
// Durability: with -wal-dir the service survives process death.
// Accepted update batches are appended to a CRC32C-checksummed
// write-ahead log before they are acknowledged (fsync policy via
// -fsync always|interval|never), the base graph is snapshotted every
// -snapshot-every batches via temp-file + atomic rename, and startup
// recovers the newest valid snapshot plus the WAL tail — truncating
// at the first torn record — before /readyz goes 200. While recovery
// runs, /readyz answers 503 {"reason":"recovering"} with Retry-After
// so load balancers skip the cold replica.
//
// -mem-limit budgets every detection run the server makes (rebuilds,
// partial recomputes and POST /scc alike); -stall-timeout arms the
// watchdog on each of them.
//
// Exit codes: 0 clean drain, 1 runtime failure, 2 bad usage, 3 graph
// load or recovery failed, 4 drain timed out with requests still in
// flight.
//
// The -chaos-* flags sabotage rebuild attempt -chaos-at-rebuild
// (1-based; the startup build is attempt 1) for fault drills: in-kernel
// sites fire inside detection, and the "condense" site fires between
// detection and epoch publication. The "wal" and "snapshot" sites
// instead arm the durability layer at absolute hit ordinals (every
// append / snapshot write counts), independent of -chaos-at-rebuild.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/graph"
	"repro/internal/chaos"
	"repro/internal/durable"
	"repro/internal/server"
	"repro/scc"
)

// Exit codes; scripts key off these to tell a clean drain from a
// wedged one.
const (
	exitOK        = 0
	exitFailure   = 1
	exitUsage     = 2
	exitLoad      = 3
	exitDrainHang = 4
)

func main() {
	os.Exit(run(context.Background(), os.Stdout, os.Stderr, os.Args[1:]))
}

// run is main minus the process globals, so tests can drive the full
// lifecycle — flag parsing, graph load, serve, signal drain — in
// process.
func run(ctx context.Context, stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("sccserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", "127.0.0.1:8080", "listen address")
		graphPath = fs.String("graph", "", "graph file to serve (required)")
		format    = fs.String("format", "", "graph format: sccg|edgelist|mm|metis (default: by extension)")
		algName   = fs.String("alg", "method2", "detection algorithm: tarjan|kosaraju|gabow|baseline|method1|method2|fwbw|obf|coloring|multistep")
		workers   = fs.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		k         = fs.Int("k", 0, "work-queue batch size (0 = paper default)")
		seed      = fs.Int64("seed", 1, "pivot seed")
		kernSpec  = fs.String("kernels", "worklist", "trim/WCC kernel set: worklist|legacy|multipivot")

		maxNodes    = fs.String("max-nodes", "4M", "reject graphs/updates beyond this many nodes (K/M/G suffixes)")
		maxEdges    = fs.String("max-edges", "64M", "reject graphs/updates beyond this many edges (K/M/G suffixes)")
		loadTimeout = fs.Duration("load-timeout", 5*time.Minute, "bound the initial graph load")

		maxInflight    = fs.Int("max-inflight", 64, "concurrent request cap past admission")
		queueDepth     = fs.Int("queue-depth", 256, "admission queue depth beyond the in-flight cap")
		queueWait      = fs.Duration("queue-wait", 100*time.Millisecond, "max queue wait before shedding with 429")
		requestTimeout = fs.Duration("request-timeout", 5*time.Second, "per-request deadline")
		rebuildTimeout = fs.Duration("rebuild-timeout", 2*time.Minute, "per-epoch rebuild deadline")
		drainTimeout   = fs.Duration("drain-timeout", 30*time.Second, "bound on the SIGTERM graceful drain")
		retryAfter     = fs.Duration("retry-after", time.Second, "Retry-After hint on 429/503 responses")
		maxEpochAge    = fs.Duration("max-epoch-age", 0, "fail readiness if updates stay unbuilt this long (0 = off)")

		noIncr          = fs.Bool("no-incr", false, "disable incremental SCC maintenance; every epoch is a full rebuild")
		incrVerifyEvery = fs.Int64("incr-verify-every", 64, "incremental epochs between full-detection self-checks (<0 disables)")

		memLimit     = fs.String("mem-limit", "", "degrade detection to fit this memory budget (bytes; K/M/G suffixes)")
		stallTimeout = fs.Duration("stall-timeout", 30*time.Second, "abort a rebuild if detection makes no progress for this long (0 = no watchdog)")

		chaosPanic   = fs.String("chaos-panic", "", "inject a panic at site[:hit][,...] into the sabotaged rebuild")
		chaosStall   = fs.String("chaos-stall", "", "inject a stall at site[:hit][,...] into the sabotaged rebuild")
		chaosFor     = fs.Duration("chaos-stall-for", 0, "bound injected stalls (0 = stall until teardown)")
		chaosRebuild = fs.Int64("chaos-at-rebuild", 2, "1-based rebuild attempt the -chaos-* flags sabotage (startup build is 1)")

		walDir        = fs.String("wal-dir", "", "durability directory for the write-ahead log + snapshots (empty = volatile)")
		snapshotEvery = fs.Int64("snapshot-every", 64, "batches between durable base-graph snapshots (<0 disables snapshots)")
		fsyncPolicy   = fs.String("fsync", "always", "WAL durability: always|interval|never")
		fsyncInterval = fs.Duration("fsync-interval", 100*time.Millisecond, "max time between WAL fsyncs under -fsync interval")
	)
	if err := fs.Parse(args); err != nil {
		return exitUsage
	}
	if *graphPath == "" || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "sccserve: -graph is required and takes no positional arguments")
		fs.Usage()
		return exitUsage
	}
	alg, err := parseAlg(*algName)
	if err != nil {
		fmt.Fprintln(stderr, "sccserve:", err)
		return exitUsage
	}
	kern, err := scc.ParseKernels(*kernSpec)
	if err != nil {
		fmt.Fprintln(stderr, "sccserve:", err)
		return exitUsage
	}
	memBytes, err := parseScaled(*memLimit, "-mem-limit")
	if err != nil {
		fmt.Fprintln(stderr, "sccserve:", err)
		return exitUsage
	}
	limits, err := parseLimits(*maxNodes, *maxEdges)
	if err != nil {
		fmt.Fprintln(stderr, "sccserve:", err)
		return exitUsage
	}
	chaosCfg, err := parseChaos(*chaosPanic, *chaosStall, *chaosFor)
	if err != nil {
		fmt.Fprintln(stderr, "sccserve:", err)
		return exitUsage
	}

	loadCtx, cancelLoad := context.WithTimeout(ctx, *loadTimeout)
	g, err := loadGraph(loadCtx, *graphPath, *format, limits)
	cancelLoad()
	if err != nil {
		fmt.Fprintln(stderr, "sccserve: load:", err)
		return exitLoad
	}
	fmt.Fprintf(stdout, "sccserve: loaded %s: %d nodes, %d edges\n", *graphPath, g.NumNodes(), g.NumEdges())

	logf := func(format string, args ...any) {
		fmt.Fprintf(stderr, format+"\n", args...)
	}

	// Durable mode: open (but don't recover) the store; the server
	// drives recovery asynchronously so /readyz can answer 503
	// "recovering" while the WAL tail replays. Close ordering matters:
	// the deferred store.Close runs after the deferred srv.Close, so
	// the final fsync happens once the rebuild loop has stopped
	// appending.
	var store *durable.Store
	if *walDir != "" {
		policy, err := durable.ParseFsyncPolicy(*fsyncPolicy)
		if err != nil {
			fmt.Fprintln(stderr, "sccserve:", err)
			return exitUsage
		}
		store, err = durable.Open(durable.Options{
			Dir:           *walDir,
			Fsync:         policy,
			FsyncEvery:    *fsyncInterval,
			SnapshotEvery: *snapshotEvery,
			Limits:        limits,
			Chaos:         durableInjector(chaosCfg),
			Logf:          logf,
		})
		if err != nil {
			fmt.Fprintln(stderr, "sccserve: wal:", err)
			return exitLoad
		}
		defer store.Close()
	}

	srv, err := server.New(server.Config{
		Options: scc.Options{
			Algorithm:    alg,
			Workers:      *workers,
			K:            *k,
			Seed:         *seed,
			Kernels:      kern,
			StallTimeout: *stallTimeout,
		},
		MemoryLimit:    memBytes,
		MaxInflight:    *maxInflight,
		QueueDepth:     *queueDepth,
		QueueWait:      *queueWait,
		RequestTimeout: *requestTimeout,
		RebuildTimeout: *rebuildTimeout,
		MaxEpochAge:    *maxEpochAge,
		RetryAfter:     *retryAfter,
		BodyLimits:     limits,

		DisableIncr:     *noIncr,
		IncrVerifyEvery: *incrVerifyEvery,
		RebuildChaos:    chaosCfg,
		ChaosAtRebuild:  *chaosRebuild,
		Durable:         store,
		Logf:            logf,
	}, g)
	if err != nil {
		if errors.Is(err, scc.ErrInvalidOption) {
			fmt.Fprintln(stderr, "sccserve:", err)
			return exitUsage
		}
		fmt.Fprintln(stderr, "sccserve:", err)
		return exitFailure
	}
	defer srv.Close()

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintln(stderr, "sccserve:", err)
		return exitFailure
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()
	fmt.Fprintf(stdout, "sccserve: listening on %s\n", ln.Addr())

	sigCtx, stop := signal.NotifyContext(ctx, syscall.SIGTERM, syscall.SIGINT)
	defer stop()

	// Readiness is immediate for a volatile server and follows WAL
	// replay + the initial rebuild for a durable one; the listener is
	// already up so probes see 503 "recovering" rather than connection
	// refused.
	ready := make(chan error, 1)
	go func() { ready <- srv.WaitReady(sigCtx) }()
	select {
	case err := <-ready:
		if err != nil && sigCtx.Err() == nil {
			fmt.Fprintln(stderr, "sccserve: recovery:", err)
			return exitLoad
		}
		if err == nil {
			sn := srv.Snapshot()
			fmt.Fprintf(stdout, "sccserve: epoch %d ready: %d SCCs via %s in %v\n",
				sn.Epoch, sn.NumSCCs, sn.Algorithm, sn.Detect)
			if store != nil {
				ms, replayed, truncated := srv.RecoveryStats()
				fmt.Fprintf(stdout, "sccserve: recovered in %dms: %d wal records replayed, truncated=%v, next seq %d\n",
					ms, replayed, truncated, store.LastSeq()+1)
			}
		}
	case err := <-serveErr:
		fmt.Fprintln(stderr, "sccserve: serve:", err)
		return exitFailure
	case <-sigCtx.Done():
	}

	if sigCtx.Err() == nil {
		select {
		case err := <-serveErr:
			fmt.Fprintln(stderr, "sccserve: serve:", err)
			return exitFailure
		case <-sigCtx.Done():
		}
	}
	stop()

	// Graceful drain: stop admitting (new requests get 503), let every
	// admitted request finish, then stop the listener. Only a drain
	// that finishes every accepted request exits 0.
	fmt.Fprintf(stdout, "sccserve: draining (timeout %v)\n", *drainTimeout)
	drained := srv.Drain(*drainTimeout)
	shutCtx, cancelShut := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelShut()
	_ = httpSrv.Shutdown(shutCtx)
	if !drained {
		fmt.Fprintln(stderr, "sccserve: drain timed out with requests in flight")
		return exitDrainHang
	}
	ctr := srv.Counters().Snapshot()
	fmt.Fprintf(stdout, "sccserve: drained clean: %d accepted, %d completed, %d shed\n",
		ctr.Accepted, ctr.Completed, ctr.Shed)
	return exitOK
}

// loadGraph loads path in the named format (or by extension) through
// the limit-guarded, cancellable loaders.
func loadGraph(ctx context.Context, path, format string, lim graph.Limits) (*graph.Graph, error) {
	if format == "" {
		switch {
		case strings.HasSuffix(path, ".sccg"):
			format = "sccg"
		case strings.HasSuffix(path, ".mtx"):
			format = "mm"
		case strings.HasSuffix(path, ".graph"), strings.HasSuffix(path, ".metis"):
			format = "metis"
		default:
			format = "edgelist"
		}
	}
	if format == "sccg" {
		return graph.LoadFileLimited(ctx, path, lim)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	switch format {
	case "edgelist":
		return graph.ReadEdgeListLimited(ctx, f, lim)
	case "mm":
		return graph.ReadMatrixMarketLimited(ctx, f, lim)
	case "metis":
		return graph.ReadMETISLimited(ctx, f, lim)
	}
	return nil, fmt.Errorf("unknown format %q (want sccg|edgelist|mm|metis)", format)
}

func parseAlg(s string) (scc.Algorithm, error) {
	switch strings.ToLower(s) {
	case "tarjan":
		return scc.Tarjan, nil
	case "kosaraju":
		return scc.Kosaraju, nil
	case "gabow":
		return scc.Gabow, nil
	case "baseline":
		return scc.Baseline, nil
	case "method1":
		return scc.Method1, nil
	case "method2":
		return scc.Method2, nil
	case "fwbw", "fw-bw":
		return scc.FWBW, nil
	case "obf":
		return scc.OBF, nil
	case "coloring":
		return scc.Coloring, nil
	case "multistep":
		return scc.MultiStep, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q", s)
}

// parseScaled parses a count with an optional K/M/G suffix (powers of
// 1024); empty means 0.
func parseScaled(s, flagName string) (int64, error) {
	if s == "" {
		return 0, nil
	}
	mult := int64(1)
	v := s
	switch v[len(v)-1] {
	case 'k', 'K':
		mult, v = 1<<10, v[:len(v)-1]
	case 'm', 'M':
		mult, v = 1<<20, v[:len(v)-1]
	case 'g', 'G':
		mult, v = 1<<30, v[:len(v)-1]
	}
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil || n < 0 {
		return 0, fmt.Errorf("bad %s %q (want a count with optional K/M/G suffix)", flagName, s)
	}
	return n * mult, nil
}

func parseLimits(nodes, edges string) (graph.Limits, error) {
	n, err := parseScaled(nodes, "-max-nodes")
	if err != nil {
		return graph.Limits{}, err
	}
	m, err := parseScaled(edges, "-max-edges")
	if err != nil {
		return graph.Limits{}, err
	}
	return graph.Limits{MaxNodes: n, MaxEdges: m}, nil
}

// durableInjector arms the "wal" and "snapshot" chaos sites for the
// durability layer. Unlike rebuild sabotage these fire at absolute
// hit ordinals over the store's lifetime (every append and every
// snapshot write counts), independent of -chaos-at-rebuild.
func durableInjector(cfg *scc.ChaosConfig) *chaos.Injector {
	if cfg == nil {
		return nil
	}
	pick := func(src map[string]int64) map[chaos.Site]int64 {
		var dst map[chaos.Site]int64
		for name, n := range src {
			site, err := chaos.ParseSite(name)
			if err != nil || (site != chaos.SiteWAL && site != chaos.SiteSnapshot) {
				continue
			}
			if dst == nil {
				dst = make(map[chaos.Site]int64, 2)
			}
			dst[site] = n
		}
		return dst
	}
	c := chaos.Config{
		PanicAt:  pick(cfg.PanicAt),
		StallAt:  pick(cfg.StallAt),
		StallFor: cfg.StallFor,
	}
	if c.PanicAt == nil && c.StallAt == nil {
		return nil
	}
	return chaos.New(c)
}

// parseChaos builds the rebuild sabotage config from the -chaos-*
// flags; all empty means none (nil).
func parseChaos(panicSpec, stallSpec string, stallFor time.Duration) (*scc.ChaosConfig, error) {
	panicAt, err := scc.ParseChaosSpec(panicSpec)
	if err != nil {
		return nil, fmt.Errorf("-chaos-panic: %w", err)
	}
	stallAt, err := scc.ParseChaosSpec(stallSpec)
	if err != nil {
		return nil, fmt.Errorf("-chaos-stall: %w", err)
	}
	if panicAt == nil && stallAt == nil {
		return nil, nil
	}
	return &scc.ChaosConfig{PanicAt: panicAt, StallAt: stallAt, StallFor: stallFor}, nil
}
