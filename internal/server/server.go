package server

import (
	"context"
	"errors"
	"fmt"
	"log"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/graph"
	"repro/internal/chaos"
	"repro/internal/durable"
	"repro/internal/incr"
	"repro/internal/metrics"
	"repro/scc"
)

// Config parameterizes a Server. The zero value of every field gets a
// serviceable default from withDefaults; Options must at least name a
// valid algorithm (the zero Options is valid and selects the default).
type Config struct {
	// Options configures the pinned detection engine. Validation
	// happens once, in New, exactly as scc.New would.
	Options scc.Options
	// MemoryLimit, when > 0, is the byte budget of every detection run
	// on the engine (scc.WithMemoryLimit): rebuilds, the maintainer's
	// partial recomputes and POST /scc alike. 0 disables it.
	MemoryLimit int64

	// MaxInflight bounds the number of requests executing concurrently
	// past admission control. Default 64.
	MaxInflight int
	// QueueDepth bounds the number of requests waiting for an
	// execution slot; arrivals beyond it are shed immediately with
	// 429. Default 256.
	QueueDepth int
	// QueueWait bounds how long an admitted request may wait for a
	// slot before being shed with 429. Default 100ms.
	QueueWait time.Duration
	// RequestTimeout is the per-request deadline propagated to handler
	// work once a slot is held. Default 5s.
	RequestTimeout time.Duration
	// RebuildTimeout bounds one epoch rebuild (detect + condense).
	// Default 2m.
	RebuildTimeout time.Duration
	// MaxEpochAge, when > 0, fails readiness if updates have been
	// pending (applied but not yet rebuilt into a published epoch) for
	// longer than this. 0 disables the staleness gate.
	MaxEpochAge time.Duration
	// RetryAfter is the Retry-After hint attached to 429 and 503
	// responses. Default 1s.
	RetryAfter time.Duration

	// BodyLimits bounds graphs POSTed to /scc and the node/edge totals
	// reachable via /update batches. Default 4M nodes / 64M edges.
	BodyLimits graph.Limits

	// Durable, when non-nil, makes accepted update batches crash-safe:
	// every batch is appended to the store's write-ahead log before it
	// joins the edge set (a batch the log cannot persist is refused
	// with 503, never acknowledged), the base graph is periodically
	// snapshotted, and New starts in a recovering state — snapshot
	// load plus WAL replay runs asynchronously while /readyz answers
	// 503 "recovering" — instead of building synchronously. The store
	// must be Opened but NOT Recovered; the server drives recovery.
	// The caller still owns Close on the store, after Server.Close.
	Durable *durable.Store

	// DisableIncr forces every epoch through the full
	// detect → condense rebuild, never the incremental maintainer.
	// Off by default: incremental classification is the primary epoch
	// path once an initial labeling exists.
	DisableIncr bool
	// IncrVerifyEvery is the incremental self-check cadence: after
	// this many consecutive incremental epochs the server re-runs full
	// detection, compares labelings, and publishes the full result
	// (counting a divergence if the maintainer disagreed). 0 means the
	// default of 64; negative disables the self-check.
	IncrVerifyEvery int64

	// RebuildChaos, when non-nil, sabotages the rebuild whose 1-based
	// attempt ordinal equals ChaosAtRebuild: in-kernel sites are
	// injected into the detection run, and a "condense" entry fires
	// between detection and publication. An "incr" entry instead
	// sabotages the incremental maintainer's commit/merge path for
	// that attempt. All other rebuilds run clean. The initial build in
	// New is attempt 1.
	RebuildChaos   *scc.ChaosConfig
	ChaosAtRebuild int64

	// Counters receives the serving-layer counters; allocated
	// internally when nil.
	Counters *metrics.ServeCounters

	// testRecoverGate (tests only) blocks durable recovery until the
	// channel closes, holding the server in the recovering state so
	// tests can observe it. Must be set before New — recovery starts
	// on New's background goroutine.
	testRecoverGate chan struct{}
	// testBeforePublish (tests only) runs on the rebuild goroutine
	// after a rebuild attempt succeeded and before its epoch is
	// published, with the attempt's 1-based ordinal, so tests can hold
	// a rebuild in flight.
	testBeforePublish func(attempt int64)
	// Logf logs server events (rebuild failures, panics, engine
	// resets). Defaults to log.Printf.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MaxInflight <= 0 {
		c.MaxInflight = 64
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 256
	}
	if c.QueueWait <= 0 {
		c.QueueWait = 100 * time.Millisecond
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.RebuildTimeout <= 0 {
		c.RebuildTimeout = 2 * time.Minute
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.BodyLimits.MaxNodes == 0 {
		c.BodyLimits.MaxNodes = 4 << 20
	}
	if c.BodyLimits.MaxEdges == 0 {
		c.BodyLimits.MaxEdges = 64 << 20
	}
	if c.IncrVerifyEvery == 0 {
		c.IncrVerifyEvery = 64
	}
	if c.Counters == nil {
		c.Counters = &metrics.ServeCounters{}
	}
	if c.Logf == nil {
		c.Logf = log.Printf
	}
	return c
}

// Server is the SCC query service: one pinned scc.Engine, one current
// epoch Snapshot behind an atomic pointer, a background rebuild loop,
// and the HTTP surface returned by Handler. Create with New, stop with
// Close; BeginDrain/Drain implement graceful shutdown.
type Server struct {
	cfg Config
	ctr *metrics.ServeCounters

	// snap is the current epoch; queries load it exactly once and
	// never block on the rebuild path.
	snap atomic.Pointer[Snapshot]

	// engineMu serializes all use of engine AND consumption of its
	// engine-owned Detect results; repairEngine swaps the engine under
	// it after a watchdog force-abort.
	engineMu sync.Mutex
	engine   *scc.Engine
	// runOpts are the per-run options every detection run passes to
	// engine, built once in New from Config.MemoryLimit.
	runOpts []scc.RunOption

	// edgeMu guards the authoritative update queue consumed by epoch
	// rebuilds, the node/edge totals used for limit checks, batches
	// (the ordinal of the last batch joined to the queue), and — when
	// durability is on — appliedSeq, the WAL sequence the queue
	// reflects. Append order and log order coincide because both
	// happen under this mutex. The queue holds accepted-but-not-yet-
	// published updates; each rebuild consumes a prefix and trims it.
	edgeMu     sync.Mutex
	nodes      int
	queue      []graph.Update
	edgeEst    int64
	dirty      bool
	dirtySince time.Time
	batches    int64
	appliedSeq uint64

	// maint owns the served edge set (CSR base + overlay deltas) and
	// its SCC labeling/condensation, evolving both per epoch through
	// classified update fast paths. It is owned by the rebuild loop:
	// assigned before the loop starts (New, or durable recovery) and
	// touched only from rebuildOnce afterwards. forceFull and
	// incrSinceFull are likewise loop-owned: the first routes the next
	// rebuild through full detection after an incremental failure, the
	// second drives the periodic self-check cadence.
	maint         *incr.Maintainer
	forceFull     bool
	incrSinceFull int64

	// store is cfg.Durable (nil without durability). epochBase is the
	// recovered epoch floor: published epochs start above it so a
	// restarted server never hands out an epoch an earlier life
	// already used for different data. Written once during recovery,
	// before the rebuild loop starts.
	store     *durable.Store
	epochBase int64

	// readyCh closes when startup recovery finishes (immediately for
	// non-durable servers); readyErr is written before the close and
	// read only after it. The recovery observability fields are
	// atomics because /stats reads them while recovery still runs.
	readyCh      chan struct{}
	readyErr     error
	recoveryMS   atomic.Int64
	walReplayed  atomic.Int64
	walTruncated atomic.Bool

	// testRecoverGate, when non-nil (tests only), blocks durable
	// recovery until the channel closes, holding the server in the
	// recovering state so tests can observe it.
	testRecoverGate chan struct{}

	kick     chan struct{} // wakes the rebuild loop, capacity 1
	rebuildN atomic.Int64  // rebuild attempt ordinal (1-based)
	lastErr  atomic.Pointer[string]

	// stateMu guards the draining/closed flags together with
	// inflight.Add, making WaitGroup reuse race-free against Drain.
	stateMu  sync.Mutex
	draining bool
	closed   bool
	inflight sync.WaitGroup

	slots   chan struct{} // execution slots, capacity MaxInflight
	waiting atomic.Int64  // requests queued for a slot

	loopCancel context.CancelFunc
	loopDone   chan struct{}

	// testHold, when non-nil (tests only), blocks every admitted
	// request after it acquires its execution slot until the channel
	// is closed — the hook the shed/drain tests use to pin slots.
	testHold chan struct{}
}

// maxConsecutiveRebuildFails bounds the loop's immediate retries; after
// this many back-to-back failures it waits for the next update instead
// of spinning on a persistently failing build.
const maxConsecutiveRebuildFails = 3

// New validates cfg, pins the detection engine, and starts the
// background rebuild loop. Without Config.Durable the initial epoch is
// built from g synchronously, so a returned *Server is immediately
// ready, and a failed initial build — including one sabotaged by
// ChaosAtRebuild == 1 — releases the engine and fails New. With
// Config.Durable the server returns immediately in the recovering
// state: snapshot load, WAL replay, and the initial build run on the
// background goroutine (g seeds only a pristine store; a non-empty
// store is authoritative), and WaitReady reports the outcome.
func New(cfg Config, g *graph.Graph) (*Server, error) {
	if g == nil {
		return nil, fmt.Errorf("server: %w", scc.ErrNilGraph)
	}
	cfg = cfg.withDefaults()
	if cfg.MemoryLimit < 0 {
		return nil, &scc.OptionError{Field: "MemoryLimit", Value: cfg.MemoryLimit, Reason: "must be >= 0"}
	}
	eng, err := scc.New(cfg.Options)
	if err != nil {
		return nil, err
	}
	var runOpts []scc.RunOption
	if cfg.MemoryLimit > 0 {
		runOpts = []scc.RunOption{scc.WithMemoryLimit(cfg.MemoryLimit)}
	}
	s := &Server{
		cfg:      cfg,
		ctr:      cfg.Counters,
		engine:   eng,
		runOpts:  runOpts,
		nodes:    g.NumNodes(),
		kick:     make(chan struct{}, 1),
		slots:    make(chan struct{}, cfg.MaxInflight),
		loopDone: make(chan struct{}),
		readyCh:  make(chan struct{}),
		store:    cfg.Durable,

		testRecoverGate: cfg.testRecoverGate,
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.loopCancel = cancel
	if s.store != nil {
		go s.runDurable(ctx, g)
		return s, nil
	}
	close(s.readyCh)
	s.maint = incr.New(g, s.detectLabels)
	s.edgeEst = g.NumEdges()
	s.dirty = true
	if err := s.rebuildOnce(context.Background()); err != nil {
		cancel()
		eng.Close()
		return nil, fmt.Errorf("server: initial build: %w", err)
	}
	go s.rebuildLoop(ctx)
	return s, nil
}

// WaitReady blocks until startup recovery (durable servers) or the
// synchronous initial build (everything else, where it returns at
// once) has finished, and returns the recovery error if it failed. A
// failed recovery leaves the server answering — every query 503s —
// so the caller decides whether that is fatal.
func (s *Server) WaitReady(ctx context.Context) error {
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-s.readyCh:
		return s.readyErr
	}
}

// RecoveryStats reports the durable-recovery observability also
// surfaced on /stats: elapsed wall-clock milliseconds (WAL replay
// plus the initial rebuild), WAL records replayed, and whether the
// log was truncated at a torn or corrupt record. All zero for a
// volatile server.
func (s *Server) RecoveryStats() (ms, replayed int64, truncated bool) {
	return s.recoveryMS.Load(), s.walReplayed.Load(), s.walTruncated.Load()
}

// runDurable is the durable server's background goroutine: recover,
// publish the first epoch, then run the rebuild loop. It owns
// loopDone for the whole server lifetime, so Close works whether or
// not recovery ever finished.
func (s *Server) runDurable(ctx context.Context, seed *graph.Graph) {
	defer close(s.loopDone)
	err := s.recoverDurable(ctx, seed)
	if err != nil {
		s.readyErr = fmt.Errorf("server: recovery: %w", err)
		s.storeLastErr(s.readyErr)
		s.cfg.Logf("server: durable recovery failed, serving disabled: %v", err)
		close(s.readyCh)
		return
	}
	close(s.readyCh)
	s.rebuildLoopBody(ctx)
}

// recoverDurable rebuilds the authoritative edge set from the store —
// newest valid snapshot plus replayed WAL tail, or the seed graph for
// a pristine store — and publishes the first epoch above the
// recovered epoch floor.
func (s *Server) recoverDurable(ctx context.Context, seed *graph.Graph) error {
	if gate := s.testRecoverGate; gate != nil {
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-gate:
		}
	}
	// Recovery time spans store recovery AND the replayed rebuild: it
	// measures how long a cold replica takes to become routable, not
	// just file I/O.
	start := time.Now()
	rec, err := s.store.Recover(ctx)
	if err != nil {
		return err
	}
	base := seed
	if rec.Graph != nil {
		base = rec.Graph
	}
	s.maint = incr.New(base, s.detectLabels)
	s.edgeMu.Lock()
	s.nodes = base.NumNodes()
	s.queue = append(s.queue[:0], rec.Updates...)
	s.edgeEst = base.NumEdges() + countInserts(rec.Updates)
	for _, u := range rec.Updates {
		if n := int(u.From) + 1; n > s.nodes {
			s.nodes = n
		}
		if n := int(u.To) + 1; n > s.nodes {
			s.nodes = n
		}
	}
	s.appliedSeq = rec.Seq
	s.dirty = true
	s.dirtySince = time.Time{}
	s.edgeMu.Unlock()
	s.epochBase = int64(rec.Seq)
	s.walReplayed.Store(int64(rec.Replayed))
	s.walTruncated.Store(rec.Truncated)

	if err := s.rebuildOnce(ctx); err != nil {
		return fmt.Errorf("initial build after replay: %w", err)
	}
	// A pristine store gets a base snapshot of the seed right away, so
	// the durability directory is self-contained from the first batch.
	if rec.Empty {
		s.snapshotEpoch(seed, 0)
	}
	s.recoveryMS.Store(time.Since(start).Milliseconds())
	s.cfg.Logf("server: recovered epoch %d (wal seq %d, %d records replayed, truncated=%v)",
		s.epochNow(), rec.Seq, rec.Replayed, rec.Truncated)
	return nil
}

// Close stops the rebuild loop and releases the engine. It does not
// drain in-flight requests; call Drain first for graceful shutdown.
// Idempotent.
func (s *Server) Close() error {
	s.stateMu.Lock()
	if s.closed {
		s.stateMu.Unlock()
		return nil
	}
	s.closed = true
	s.stateMu.Unlock()
	s.loopCancel()
	<-s.loopDone
	s.engineMu.Lock()
	defer s.engineMu.Unlock()
	return s.engine.Close()
}

// Snapshot returns the current epoch (nil only before the initial
// build, which New performs synchronously).
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Counters returns the serving-layer counter set.
func (s *Server) Counters() *metrics.ServeCounters { return s.ctr }

// BeginDrain stops admitting requests: every subsequent arrival is
// rejected with 503 until the process exits. In-flight requests
// (including ones queued for a slot) run to completion.
func (s *Server) BeginDrain() {
	s.stateMu.Lock()
	s.draining = true
	s.stateMu.Unlock()
}

// Drain begins draining and waits up to timeout for every admitted
// request to complete. It reports whether the server fully drained.
func (s *Server) Drain(timeout time.Duration) bool {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return true
	case <-time.After(timeout):
		return false
	}
}

// tryEnter admits one request unless the server is draining or closed.
// The WaitGroup.Add happens under the same mutex as the draining check,
// so Drain's Wait cannot race an Add.
func (s *Server) tryEnter() bool {
	s.stateMu.Lock()
	defer s.stateMu.Unlock()
	if s.draining || s.closed {
		return false
	}
	s.inflight.Add(1)
	s.ctr.Accepted.Add(1)
	return true
}

// exit retires one admitted request.
func (s *Server) exit() {
	s.ctr.Completed.Add(1)
	s.inflight.Done()
}

// applyUpdate appends a signed update batch to the authoritative
// queue (growing the node count to cover maxNode) and kicks the
// rebuild loop. The caller has already bounds-checked against
// BodyLimits. When durability is on, the batch goes to the
// write-ahead log FIRST, under the same mutex that orders the queue,
// so log order and apply order coincide; a batch the log refuses is
// not applied and the error is returned for the handler to surface
// as 503. On success it returns the batch's ordinal: the batch is
// visible once a published Snapshot's Batches reaches it.
func (s *Server) applyUpdate(batch []graph.Update, maxNode int64) (int64, error) {
	ord, err := s.applyLocked(batch, maxNode)
	if err != nil {
		return 0, err
	}
	select {
	case s.kick <- struct{}{}:
	default:
	}
	return ord, nil
}

func (s *Server) applyLocked(batch []graph.Update, maxNode int64) (int64, error) {
	s.edgeMu.Lock()
	defer s.edgeMu.Unlock()
	if s.store != nil {
		seq, err := s.store.AppendUpdates(batch)
		if err != nil {
			s.ctr.WALAppendErrs.Add(1)
			return 0, err
		}
		s.appliedSeq = seq
		s.ctr.WALAppends.Add(1)
	}
	if int(maxNode)+1 > s.nodes {
		s.nodes = int(maxNode) + 1
	}
	s.queue = append(s.queue, batch...)
	s.edgeEst += countInserts(batch)
	s.batches++
	if !s.dirty {
		s.dirty = true
		s.dirtySince = time.Now()
	}
	return s.batches, nil
}

// countInserts counts the inserts in a batch: the amount by which it
// can grow the edge set, used to keep edgeEst a safe upper bound for
// limit checks (deletes only shrink it, and are credited back when a
// rebuild resyncs the estimate against the maintainer).
func countInserts(batch []graph.Update) int64 {
	var n int64
	for _, u := range batch {
		if u.Op == graph.EdgeInsert {
			n++
		}
	}
	return n
}

// totals reports the current authoritative node count and edge-count
// upper bound, for limit checks on incoming update batches.
func (s *Server) totals() (nodes int, edges int64) {
	s.edgeMu.Lock()
	defer s.edgeMu.Unlock()
	return s.nodes, s.edgeEst
}

// pendingSince reports whether updates are waiting to be rebuilt and
// since when.
func (s *Server) pendingSince() (bool, time.Time) {
	s.edgeMu.Lock()
	defer s.edgeMu.Unlock()
	return s.dirty, s.dirtySince
}

func (s *Server) isDirty() bool {
	d, _ := s.pendingSince()
	return d
}

// recoveringNow reports whether startup recovery is still running.
func (s *Server) recoveringNow() bool {
	select {
	case <-s.readyCh:
		return false
	default:
		return true
	}
}

func (s *Server) epochNow() int64 {
	if sn := s.snap.Load(); sn != nil {
		return sn.Epoch
	}
	return 0
}

// batchesPublished reports the ordinal of the last update batch the
// published epoch reflects.
func (s *Server) batchesPublished() int64 {
	if sn := s.snap.Load(); sn != nil {
		return sn.Batches
	}
	return 0
}

func (s *Server) storeLastErr(err error) {
	if err == nil {
		s.lastErr.Store(nil)
		return
	}
	msg := err.Error()
	s.lastErr.Store(&msg)
}

// rebuildLoop is the background epoch builder: it wakes on kicks, runs
// rebuilds while the edge set is dirty, and bounds immediate retries
// after consecutive failures so a persistently failing build cannot
// spin the loop.
func (s *Server) rebuildLoop(ctx context.Context) {
	defer close(s.loopDone)
	s.rebuildLoopBody(ctx)
}

// rebuildLoopBody is the loop shared by both lifecycles: rebuildLoop
// (non-durable) and runDurable own loopDone themselves.
func (s *Server) rebuildLoopBody(ctx context.Context) {
	fails := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-s.kick:
		}
		for s.isDirty() {
			if ctx.Err() != nil {
				return
			}
			err := s.rebuildOnce(ctx)
			if err == nil {
				fails = 0
				s.storeLastErr(nil)
				continue
			}
			s.ctr.RebuildFailures.Add(1)
			s.storeLastErr(err)
			s.cfg.Logf("server: rebuild failed, epoch %d kept serving: %v", s.epochNow(), err)
			fails++
			if fails >= maxConsecutiveRebuildFails {
				s.cfg.Logf("server: %d consecutive rebuild failures; waiting for next update", fails)
				fails = 0
				break
			}
			select {
			case <-ctx.Done():
				return
			case <-time.After(time.Duration(fails) * 10 * time.Millisecond):
			}
		}
	}
}

// rebuildOnce produces one epoch: consume the queued update prefix,
// evolve the labeling — through the incremental maintainer's
// classified fast paths by default, or a from-scratch
// detect → condense when no labeling exists yet, incremental is
// disabled, or the previous incremental attempt failed — and publish.
// Any failure publishes nothing: the maintainer rolled itself back,
// the queue prefix stays queued, and the previous snapshot pointer is
// untouched, which IS the rollback.
func (s *Server) rebuildOnce(ctx context.Context) error {
	attempt := s.rebuildN.Add(1)
	s.ctr.Rebuilds.Add(1)

	s.edgeMu.Lock()
	// k is the consumed prefix: updates arriving mid-rebuild stay
	// queued for the next epoch. seqCopied and batchesCopied are the
	// WAL sequence and the batch ordinal this epoch will cover —
	// captured with the prefix, under the same mutex that ordered all
	// three.
	k := len(s.queue)
	updates := s.queue[:k:k]
	seqCopied := s.appliedSeq
	batchesCopied := s.batches
	s.edgeMu.Unlock()

	rctx, cancel := context.WithTimeout(ctx, s.cfg.RebuildTimeout)
	defer cancel()

	sabotage := s.cfg.RebuildChaos != nil && attempt == s.cfg.ChaosAtRebuild
	// A chaos config naming the "incr" site targets the maintainer, so
	// the sabotaged attempt must run incrementally; any other sabotage
	// targets detection/condensation and forces the full path.
	chaosIncr := sabotage && hasIncrSite(s.cfg.RebuildChaos)
	full := s.maint.Cond() == nil || s.cfg.DisableIncr || s.forceFull ||
		(sabotage && !chaosIncr)

	var (
		cond *scc.Condensed
		info buildInfo
	)
	if full {
		_, c, err := s.maint.FullBuild(rctx, updates, func(bctx context.Context, g *graph.Graph) (*scc.Condensed, error) {
			cc, i, derr := s.detectAndCondense(bctx, g, sabotage)
			info = i
			return cc, derr
		})
		if err != nil {
			return err
		}
		cond = c
		s.forceFull = false
		s.incrSinceFull = 0
		s.ctr.FullRebuilds.Add(1)
	} else {
		start := time.Now()
		if chaosIncr {
			if inj := incrInjector(s.cfg.RebuildChaos); inj != nil {
				inj.Bind(rctx.Done())
				s.maint.SetChaos(inj)
				defer s.maint.SetChaos(nil)
			}
		}
		c, st, err := s.maint.Apply(rctx, updates)
		if err != nil {
			// The maintainer rolled back; route the retry through a
			// full rebuild so one bad classification cannot wedge the
			// epoch pipeline.
			s.forceFull = true
			s.ctr.IncrFallbacks.Add(1)
			return err
		}
		cond = c
		info = buildInfo{numSCCs: int64(len(cond.Sizes)), detect: time.Since(start)}
		s.ctr.IncrEpochs.Add(1)
		s.addIncrStats(st)
		s.incrSinceFull++
		if ve := s.cfg.IncrVerifyEvery; ve > 0 && s.incrSinceFull >= ve {
			cond = s.verifyIncr(rctx, cond, &info)
		}
	}

	prev := s.snap.Load()
	epoch := int64(1)
	if prev != nil {
		epoch = prev.Epoch + 1
	}
	// Recovered servers publish above the epoch floor: the pre-crash
	// epoch never exceeded 1 + durable batches, so floor+1 is ≥ any
	// epoch an earlier life handed out — monotonic across restarts.
	if epoch <= s.epochBase {
		epoch = s.epochBase + 1
	}
	if hook := s.cfg.testBeforePublish; hook != nil {
		hook(attempt)
	}
	s.snap.Store(&Snapshot{
		Epoch:     epoch,
		Built:     time.Now(),
		Nodes:     s.maint.NumNodes(),
		Edges:     s.maint.NumEdges(),
		Batches:   batchesCopied,
		Cond:      cond,
		NumSCCs:   info.numSCCs,
		Detect:    info.detect,
		Algorithm: s.cfg.Options.Algorithm,
	})
	s.ctr.EpochSwaps.Add(1)

	// Trim the consumed prefix and resync the edge estimate against
	// the maintainer's exact count; anything that arrived mid-rebuild
	// stays queued and keeps the loop dirty.
	s.edgeMu.Lock()
	s.queue = append(s.queue[:0], s.queue[k:]...)
	s.edgeEst = s.maint.NumEdges() + countInserts(s.queue)
	if len(s.queue) == 0 {
		s.dirty = false
		s.dirtySince = time.Time{}
	}
	s.edgeMu.Unlock()

	// The maintainer's edge set doubles as the durable snapshot
	// payload when enough batches have accumulated since the last one
	// (Materialize returns the base CSR itself right after a full
	// rebuild, so the common case copies nothing).
	if s.store != nil && s.store.ShouldSnapshot(seqCopied) {
		s.snapshotEpoch(s.maint.Materialize(), seqCopied)
	}
	return nil
}

// verifyIncr is the periodic incremental self-check: after
// IncrVerifyEvery consecutive incremental epochs, re-run full
// detection over the maintainer's edge set, compare labelings, and
// publish the full result (which is also the maintainer's new
// committed base). A divergence is counted and logged — each one is
// both a bug signal and an automatic repair. A failed self-check
// build is non-fatal: the incremental epoch stands and the check
// retries next epoch.
func (s *Server) verifyIncr(ctx context.Context, cond *scc.Condensed, info *buildInfo) *scc.Condensed {
	s.ctr.IncrVerifyRuns.Add(1)
	var fi buildInfo
	_, fcond, err := s.maint.FullBuild(ctx, nil, func(bctx context.Context, g *graph.Graph) (*scc.Condensed, error) {
		cc, i, derr := s.detectAndCondense(bctx, g, false)
		fi = i
		return cc, derr
	})
	if err != nil {
		s.cfg.Logf("server: incr self-check full build failed (incremental epoch stands): %v", err)
		return cond
	}
	s.incrSinceFull = 0
	if !incr.LabelsEquivalent(cond.NodeComp, fcond.NodeComp) {
		s.ctr.IncrVerifyDivergence.Add(1)
		s.cfg.Logf("server: incremental labeling diverged from full detection; publishing full result")
	}
	*info = fi
	return fcond
}

// addIncrStats folds one Apply's per-class classification counts into
// the serving counters.
func (s *Server) addIncrStats(st incr.Stats) {
	s.ctr.IncrIntraInserts.Add(st.IntraInserts)
	s.ctr.IncrDagInserts.Add(st.DagInserts)
	s.ctr.IncrCycleMerges.Add(st.CycleMerges)
	s.ctr.IncrNoopDeletes.Add(st.NoopDeletes)
	s.ctr.IncrDagDeletes.Add(st.DagDeletes)
	s.ctr.IncrPartials.Add(st.Partials)
	s.ctr.IncrNoops.Add(st.Noops)
}

// snapshotEpoch persists g as the durable snapshot covering seq.
// Failure — including an injected SiteSnapshot panic — is counted and
// logged, never fatal: the WAL still holds everything, recovery just
// replays a longer tail.
func (s *Server) snapshotEpoch(g *graph.Graph, seq uint64) {
	defer func() {
		if v := recover(); v != nil {
			s.ctr.SnapshotFailures.Add(1)
			s.cfg.Logf("server: snapshot at seq %d panicked: %v", seq, v)
		}
	}()
	if err := s.store.WriteSnapshot(g, seq); err != nil {
		s.ctr.SnapshotFailures.Add(1)
		s.cfg.Logf("server: snapshot at seq %d failed, WAL replay covers it: %v", seq, err)
		return
	}
	s.ctr.Snapshots.Add(1)
}

type buildInfo struct {
	numSCCs int64
	detect  time.Duration
}

// detectAndCondense runs detection on the pinned engine and condenses
// the labeling, under engineMu (Detect results are engine-owned; the
// lock spans their consumption). Panics on this goroutine — notably
// injected SiteCondense failures — are isolated into a *scc.PanicError
// so a sabotaged rebuild degrades to a counted rollback, never a
// crash.
func (s *Server) detectAndCondense(ctx context.Context, g *graph.Graph, sabotage bool) (cond *scc.Condensed, info buildInfo, err error) {
	s.engineMu.Lock()
	defer s.engineMu.Unlock()
	defer func() {
		if v := recover(); v != nil {
			cond = nil
			err = &scc.PanicError{Value: v, Stack: debug.Stack()}
		}
	}()
	runOpts := s.runOpts
	if sabotage {
		runOpts = append(runOpts[:len(runOpts):len(runOpts)], scc.WithChaos(s.cfg.RebuildChaos))
	}
	res, err := s.engine.Detect(ctx, g, runOpts...)
	if err != nil {
		s.repairEngine(err)
		return nil, info, err
	}
	info = buildInfo{numSCCs: res.NumSCCs, detect: res.Total}
	if sabotage {
		if inj := condenseInjector(s.cfg.RebuildChaos); inj != nil {
			inj.Bind(ctx.Done())
			inj.Hit(chaos.SiteCondense)
		}
	}
	cond, err = scc.Condense(g, res.Comp)
	if err != nil {
		return nil, info, err
	}
	return cond, info, nil
}

// detectLabels is the incr.DetectFunc the maintainer calls for
// partial recomputes of an affected region: one detection run on the
// pinned engine under engineMu, labels copied out because Detect
// results are engine-owned and the maintainer keeps them past the
// call.
func (s *Server) detectLabels(ctx context.Context, g *graph.Graph) ([]int32, error) {
	s.engineMu.Lock()
	defer s.engineMu.Unlock()
	res, err := s.engine.Detect(ctx, g, s.runOpts...)
	if err != nil {
		s.repairEngine(err)
		return nil, err
	}
	return append([]int32(nil), res.Comp...), nil
}

// repairEngine replaces the engine after a failure that destroyed its
// runtime: a stall-watchdog force-abort folds the engine into the
// closed state, so detection can only continue on a fresh gang. Called
// under engineMu.
func (s *Server) repairEngine(err error) {
	if !errors.Is(err, scc.ErrEngineClosed) && !errors.Is(err, scc.ErrStalled) {
		return
	}
	s.engine.Close()
	ne, nerr := scc.New(s.cfg.Options)
	if nerr != nil {
		// Options were valid at New; keep the closed engine so later
		// calls fail typed rather than nil-panic.
		s.cfg.Logf("server: engine rebuild failed: %v", nerr)
		return
	}
	s.engine = ne
	s.ctr.EngineResets.Add(1)
	s.cfg.Logf("server: engine replaced after: %v", err)
}

// detectAdhoc runs one detection for POST /scc on the pinned engine.
// It contends with the rebuild loop via TryLock: a busy engine is an
// overload signal, surfaced as an error wrapping scc.ErrEngineBusy for
// the handler to map to 429 + Retry-After.
func (s *Server) detectAdhoc(ctx context.Context, g *graph.Graph) (buildInfo, error) {
	if !s.engineMu.TryLock() {
		return buildInfo{}, fmt.Errorf("server: adhoc detect: %w", scc.ErrEngineBusy)
	}
	defer s.engineMu.Unlock()
	res, err := s.engine.Detect(ctx, g, s.runOpts...)
	if err != nil {
		s.repairEngine(err)
		return buildInfo{}, err
	}
	return buildInfo{numSCCs: res.NumSCCs, detect: res.Total}, nil
}

// condenseInjector builds an injector for just the "condense" entries
// of c, or nil if it has none. In-kernel entries travel separately via
// scc.WithChaos; this injector covers the one site the engine never
// hits.
func condenseInjector(c *scc.ChaosConfig) *chaos.Injector {
	if c == nil {
		return nil
	}
	cfg := chaos.Config{StallFor: c.StallFor}
	if n := c.PanicAt[chaos.SiteCondense.String()]; n > 0 {
		cfg.PanicAt = map[chaos.Site]int64{chaos.SiteCondense: n}
	}
	if n := c.StallAt[chaos.SiteCondense.String()]; n > 0 {
		cfg.StallAt = map[chaos.Site]int64{chaos.SiteCondense: n}
	}
	if cfg.PanicAt == nil && cfg.StallAt == nil {
		return nil
	}
	return chaos.New(cfg)
}

// hasIncrSite reports whether c names the incremental maintainer's
// "incr" site, which routes the sabotaged attempt through the
// incremental path instead of forcing a full rebuild.
func hasIncrSite(c *scc.ChaosConfig) bool {
	if c == nil {
		return false
	}
	return c.PanicAt[chaos.SiteIncr.String()] > 0 || c.StallAt[chaos.SiteIncr.String()] > 0
}

// incrInjector builds an injector for just the "incr" entries of c,
// or nil if it has none — condenseInjector's sibling for the
// maintainer's commit and cycle-collapse sites.
func incrInjector(c *scc.ChaosConfig) *chaos.Injector {
	if c == nil {
		return nil
	}
	cfg := chaos.Config{StallFor: c.StallFor}
	if n := c.PanicAt[chaos.SiteIncr.String()]; n > 0 {
		cfg.PanicAt = map[chaos.Site]int64{chaos.SiteIncr: n}
	}
	if n := c.StallAt[chaos.SiteIncr.String()]; n > 0 {
		cfg.StallAt = map[chaos.Site]int64{chaos.SiteIncr: n}
	}
	if cfg.PanicAt == nil && cfg.StallAt == nil {
		return nil
	}
	return chaos.New(cfg)
}
