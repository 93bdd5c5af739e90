package experiments

import (
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/server"
	"repro/scc"
)

// ServeBenchConfig configures the serving load harness behind
// BENCH_serve.json: an in-process sccserve (internal/server on an
// httptest listener) driven by concurrent HTTP clients through four
// scenarios — steady state, forced overload, chaos-sabotaged rebuild,
// and graceful drain.
type ServeBenchConfig struct {
	// Dataset is the suite graph to serve (default "flickr").
	Dataset string
	// Scale is the dataset scale factor.
	Scale float64
	// Workers is the detection worker count (0 = GOMAXPROCS).
	Workers int
	// Clients is the number of concurrent load generators (default 16).
	Clients int
	// Duration is the per-scenario load window (default 800ms).
	Duration time.Duration
	// Seed drives pivot selection and the clients' query mix.
	Seed int64
}

func (c ServeBenchConfig) withDefaults() ServeBenchConfig {
	if c.Dataset == "" {
		c.Dataset = "flickr"
	}
	if c.Scale <= 0 {
		c.Scale = 1.0
	}
	if c.Clients <= 0 {
		c.Clients = 16
	}
	if c.Duration <= 0 {
		c.Duration = 800 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// ServeScenario is one scenario's measured outcome.
type ServeScenario struct {
	Name     string `json:"name"`
	Requests int64  `json:"requests"`
	OK       int64  `json:"ok"`
	// Shed429 counts load-shedding responses (429); Rejected503
	// counts drain rejections. Err5xx counts every other 5xx — the
	// robustness gates hold it at zero in all scenarios.
	Shed429     int64 `json:"shed_429"`
	Rejected503 int64 `json:"rejected_503"`
	Err4xx      int64 `json:"err_4xx"`
	Err5xx      int64 `json:"err_5xx"`

	QPS   float64 `json:"qps" unit:"1/s"`
	P50US int64   `json:"p50_us" unit:"us"`
	P99US int64   `json:"p99_us" unit:"us"`
	MaxUS int64   `json:"max_us" unit:"us"`

	EpochStart      int64 `json:"epoch_start"`
	EpochEnd        int64 `json:"epoch_end"`
	Rebuilds        int64 `json:"rebuilds"`
	RebuildFailures int64 `json:"rebuild_failures"`

	// DrainOK is set by the drain scenario: the drain completed inside
	// its bound with every accepted request finished.
	DrainOK *bool `json:"drain_ok" unit:"bool"`
}

// ServeReport is the serve suite of BENCH_serve.json.
type ServeReport struct {
	Dataset   string
	Nodes     int
	Edges     int64
	Scale     float64
	Workers   int
	Clients   int
	Seed      int64
	Scenarios []ServeScenario
}

// Records returns the report as the serve suite: one case per
// scenario, each also carrying its epoch advance (end minus start).
func (r ServeReport) Records() RecordSet {
	var recs []Record
	for _, s := range r.Scenarios {
		recs = append(recs, rowRecords(s.Name, s)...)
		recs = append(recs, Record{s.Name, "epoch_advance", float64(s.EpochEnd - s.EpochStart), "count"})
	}
	return newRecordSet(map[string]any{
		"dataset": r.Dataset, "nodes": r.Nodes, "edges": r.Edges, "scale": r.Scale,
		"workers": r.Workers, "clients": r.Clients, "seed": r.Seed,
	}, recs)
}

// serveRun is one scenario server plus its HTTP front end.
type serveRun struct {
	srv *server.Server
	ts  *httptest.Server
}

func startServe(cfg ServeBenchConfig, scfg server.Config) (*serveRun, error) {
	d, err := Find(cfg.Dataset)
	if err != nil {
		return nil, err
	}
	g := d.Build(cfg.Scale)
	scfg.Options = scc.Options{Algorithm: scc.Method2, Workers: cfg.Workers, Seed: cfg.Seed}
	if scfg.Logf == nil {
		scfg.Logf = func(string, ...any) {}
	}
	srv, err := server.New(scfg, g)
	if err != nil {
		return nil, err
	}
	return &serveRun{srv: srv, ts: httptest.NewServer(srv.Handler())}, nil
}

func (r *serveRun) stop() {
	r.ts.Close()
	r.srv.Close()
}

// loadResult aggregates the client side of one scenario.
type loadResult struct {
	requests, ok, shed, rejected, err4xx, err5xx atomic.Int64
	mu                                           sync.Mutex
	latencies                                    []int64 // µs, 2xx only
	elapsed                                      time.Duration
}

// drive hammers the query endpoints from cfg.Clients goroutines for
// cfg.Duration. Each client randomizes over componentof / same /
// reachable; with adhoc set, every fourth request is instead a POST
// /scc carrying a graph large enough that each detection holds a slot
// for milliseconds. Ad-hoc detections also serialize on the pinned
// engine, so concurrent ones collide through the scc.ErrEngineBusy →
// 429 mapping; together the two paths make shedding deterministic
// under overload no matter how fast the pure query handlers are.
func drive(cfg ServeBenchConfig, run *serveRun, res *loadResult, adhoc bool) {
	n := run.srv.Snapshot().Nodes
	var adhocBody string
	if adhoc {
		var sb strings.Builder
		const ring = 20000 // one big cycle: a single non-trivial SCC
		for i := 0; i < ring; i++ {
			fmt.Fprintf(&sb, "%d %d\n", i, (i+1)%ring)
		}
		adhocBody = sb.String()
	}
	client := &http.Client{
		Transport: &http.Transport{MaxIdleConns: cfg.Clients * 2, MaxIdleConnsPerHost: cfg.Clients * 2},
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(id)))
			local := make([]int64, 0, 4096)
			for {
				select {
				case <-stop:
					res.mu.Lock()
					res.latencies = append(res.latencies, local...)
					res.mu.Unlock()
					return
				default:
				}
				var (
					resp *http.Response
					err  error
					q0   = time.Now()
				)
				if adhoc && rng.Intn(4) == 0 {
					resp, err = client.Post(run.ts.URL+"/scc", "text/plain",
						strings.NewReader(adhocBody))
				} else {
					var url string
					switch rng.Intn(3) {
					case 0:
						url = fmt.Sprintf("%s/componentof?node=%d", run.ts.URL, rng.Intn(n))
					case 1:
						url = fmt.Sprintf("%s/same?u=%d&v=%d", run.ts.URL, rng.Intn(n), rng.Intn(n))
					default:
						url = fmt.Sprintf("%s/reachable?from=%d&to=%d", run.ts.URL, rng.Intn(n), rng.Intn(n))
					}
					resp, err = client.Get(url)
				}
				if err != nil {
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				lat := time.Since(q0).Microseconds()
				res.requests.Add(1)
				switch {
				case resp.StatusCode < 300:
					res.ok.Add(1)
					local = append(local, lat)
				case resp.StatusCode == http.StatusTooManyRequests:
					res.shed.Add(1)
				case resp.StatusCode == http.StatusServiceUnavailable:
					res.rejected.Add(1)
				case resp.StatusCode < 500:
					res.err4xx.Add(1)
				default:
					res.err5xx.Add(1)
				}
			}
		}(c)
	}
	time.Sleep(cfg.Duration)
	close(stop)
	wg.Wait()
	res.elapsed = time.Since(t0)
	client.CloseIdleConnections()
}

// finish converts a loadResult plus server counters into the scenario
// row.
func finish(name string, run *serveRun, res *loadResult, epochStart int64) ServeScenario {
	row := ServeScenario{
		Name:        name,
		Requests:    res.requests.Load(),
		OK:          res.ok.Load(),
		Shed429:     res.shed.Load(),
		Rejected503: res.rejected.Load(),
		Err4xx:      res.err4xx.Load(),
		Err5xx:      res.err5xx.Load(),
		EpochStart:  epochStart,
		EpochEnd:    run.srv.Snapshot().Epoch,
	}
	ctr := run.srv.Counters().Snapshot()
	row.Rebuilds = ctr.Rebuilds
	row.RebuildFailures = ctr.RebuildFailures
	if res.elapsed > 0 {
		row.QPS = float64(row.OK) / res.elapsed.Seconds()
	}
	lats := res.latencies
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	if len(lats) > 0 {
		row.P50US = lats[len(lats)/2]
		row.P99US = lats[len(lats)*99/100]
		row.MaxUS = lats[len(lats)-1]
	}
	return row
}

// ServeSweep runs the four serving scenarios, each on a fresh server
// over the configured dataset, and returns the report.
func ServeSweep(cfg ServeBenchConfig) (ServeReport, error) {
	cfg = cfg.withDefaults()
	rep := ServeReport{
		Dataset: cfg.Dataset,
		Scale:   cfg.Scale,
		Workers: cfg.Workers,
		Clients: cfg.Clients,
		Seed:    cfg.Seed,
	}

	// steady: generous caps, pure query load. The QPS/latency numbers
	// that matter come from here.
	{
		run, err := startServe(cfg, server.Config{
			MaxInflight: cfg.Clients * 2,
			QueueDepth:  cfg.Clients * 4,
		})
		if err != nil {
			return rep, fmt.Errorf("serve steady: %w", err)
		}
		sn := run.srv.Snapshot()
		rep.Nodes, rep.Edges = sn.Nodes, sn.Edges
		var res loadResult
		drive(cfg, run, &res, false)
		rep.Scenarios = append(rep.Scenarios, finish("steady", run, &res, sn.Epoch))
		run.stop()
	}

	// overload: a single execution slot with a one-deep, short-wait
	// queue. A slow-trickle POST /scc upload (slowloris-shaped) claims
	// the slot before the load starts and holds it for half the window
	// by keeping its request body open, so the query load piles onto
	// the queue and has to shed — deterministically, on any core
	// count, because the hold is blocking I/O rather than a timing
	// race. The gate wants shedding (429 + Retry-After), zero 5xx.
	{
		run, err := startServe(cfg, server.Config{
			MaxInflight: 1,
			QueueDepth:  1,
			QueueWait:   time.Millisecond,
		})
		if err != nil {
			return rep, fmt.Errorf("serve overload: %w", err)
		}
		epoch := run.srv.Snapshot().Epoch
		var res loadResult
		hog := make(chan error, 1)
		pr, pw := io.Pipe()
		go func() {
			resp, err := http.Post(run.ts.URL+"/scc", "text/plain", pr)
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("slot-hog /scc status %d", resp.StatusCode)
				}
			}
			hog <- err
		}()
		go func() {
			pw.Write([]byte("0 1\n1 0\n"))
			time.Sleep(cfg.Duration / 2)
			pw.Close()
		}()
		// Let the hog claim the slot before the load arrives.
		time.Sleep(10 * time.Millisecond)
		drive(cfg, run, &res, true)
		if err := <-hog; err != nil {
			run.stop()
			return rep, fmt.Errorf("serve overload: %w", err)
		}
		rep.Scenarios = append(rep.Scenarios, finish("overload", run, &res, epoch))
		run.stop()
	}

	// chaos-rebuild: queries hammer while an update triggers a rebuild
	// whose condensation is sabotaged; the retry must publish the next
	// epoch and the query path must never 5xx.
	{
		run, err := startServe(cfg, server.Config{
			MaxInflight:  cfg.Clients * 2,
			QueueDepth:   cfg.Clients * 4,
			RebuildChaos: &scc.ChaosConfig{PanicAt: map[string]int64{"condense": 1}},
			// Attempt 1 is the startup build; sabotage the update's.
			ChaosAtRebuild: 2,
		})
		if err != nil {
			return rep, fmt.Errorf("serve chaos: %w", err)
		}
		epoch := run.srv.Snapshot().Epoch
		var res loadResult
		done := make(chan error, 1)
		go func() {
			// Mid-scenario edge-batch update; wait=1 blocks until the
			// retried rebuild publishes.
			resp, err := http.Post(run.ts.URL+"/update?wait=1", "text/plain", strings.NewReader("1 0\n0 1\n"))
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					err = fmt.Errorf("update status %d", resp.StatusCode)
				}
			}
			done <- err
		}()
		drive(cfg, run, &res, false)
		if err := <-done; err != nil {
			run.stop()
			return rep, fmt.Errorf("serve chaos update: %w", err)
		}
		rep.Scenarios = append(rep.Scenarios, finish("chaos-rebuild", run, &res, epoch))
		run.stop()
	}

	// drain: begin a graceful drain mid-load; every accepted request
	// must finish inside the bound while new arrivals bounce with 503.
	{
		run, err := startServe(cfg, server.Config{
			MaxInflight: cfg.Clients * 2,
			QueueDepth:  cfg.Clients * 4,
		})
		if err != nil {
			return rep, fmt.Errorf("serve drain: %w", err)
		}
		epoch := run.srv.Snapshot().Epoch
		var res loadResult
		drainOK := make(chan bool, 1)
		go func() {
			time.Sleep(cfg.Duration / 2)
			drainOK <- run.srv.Drain(10 * time.Second)
		}()
		drive(cfg, run, &res, false)
		ok := <-drainOK
		ctr := run.srv.Counters().Snapshot()
		ok = ok && ctr.Accepted == ctr.Completed
		row := finish("drain", run, &res, epoch)
		row.DrainOK = &ok
		rep.Scenarios = append(rep.Scenarios, row)
		run.stop()
	}

	return rep, nil
}

// FormatServe renders the report as an aligned text table.
func FormatServe(rep ServeReport) string {
	out := fmt.Sprintf("serving load harness (%s: %d nodes, %d edges; %d clients):\n",
		rep.Dataset, rep.Nodes, rep.Edges, rep.Clients)
	out += fmt.Sprintf("%-14s %9s %9s %7s %7s %6s %10s %9s %9s %7s\n",
		"scenario", "requests", "qps", "shed", "503", "5xx", "p50", "p99", "epochs", "drain")
	for _, s := range rep.Scenarios {
		drain := "-"
		if s.DrainOK != nil {
			drain = fmt.Sprintf("%v", *s.DrainOK)
		}
		out += fmt.Sprintf("%-14s %9d %9.0f %7d %7d %6d %10v %9v %5d→%-3d %7s\n",
			s.Name, s.Requests, s.QPS, s.Shed429, s.Rejected503, s.Err5xx,
			time.Duration(s.P50US)*time.Microsecond,
			time.Duration(s.P99US)*time.Microsecond,
			s.EpochStart, s.EpochEnd, drain)
	}
	return out
}
