// Package worklist implements the paper's custom two-level work queue
// (§4.3): a global queue shared by all workers plus a private local
// queue per worker. Each worker fetches up to K items at a time from
// the global queue into its local queue; newly generated items go to
// the local queue first and overflow to the global queue in batches of
// K once the local queue reaches 2K. The paper sets K=1 for Baseline
// and Method 1 (parallelism-starved) and K=8 for Method 2.
//
// The queue also records the statistics the paper reports: the peak
// number of simultaneously ready tasks (its "maximum queue depth" —
// six for Method 1 on Flickr, ~10,000 for Method 2) and the total task
// count.
package worklist

import (
	"sync"
	"sync/atomic"

	"repro/internal/parallel"
)

// Queue is a two-level work queue of items of type T, executed by a
// fixed pool of workers. Create with New, seed with Seed (or push from
// inside tasks), then call Run.
//
// A panic inside a task does not crash the process: the first panic is
// captured (value + stack), the queue cancels itself so peers stop
// dispatching, and Run re-raises it as a *parallel.WorkerPanic on the
// calling goroutine once all workers have parked. Abandon releases a
// Run blocked on a wedged task; Run then panics
// parallel.ErrBarrierAbandoned and the queue must not be reused.
type Queue[T any] struct {
	k       int
	workers int

	mu     sync.Mutex
	cond   *sync.Cond
	global []T
	idle   int
	done   bool

	local [][]T

	ready     atomic.Int64 // items currently queued (global + all locals)
	readyPeak atomic.Int64
	total     atomic.Int64 // items ever enqueued
	executed  atomic.Int64
	canceled  atomic.Bool

	trap      parallel.Trap
	abandoned atomic.Bool
	abandonCh chan struct{}
}

// New returns a Queue executed by `workers` workers with batch size k.
// workers and k must be ≥ 1.
func New[T any](workers, k int) *Queue[T] {
	if workers < 1 {
		panic("worklist: workers must be >= 1")
	}
	if k < 1 {
		panic("worklist: k must be >= 1")
	}
	q := &Queue[T]{k: k, workers: workers, local: make([][]T, workers), abandonCh: make(chan struct{})}
	// Local queues are bounded at 2K by the spill rule; preallocating
	// that capacity keeps Push allocation-free in steady state.
	for w := range q.local {
		q.local[w] = make([]T, 0, 2*k)
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Seed pushes items onto the global queue before Run starts. It must
// not be called concurrently with Run.
func (q *Queue[T]) Seed(items []T) {
	q.global = append(q.global, items...)
	q.noteEnqueued(len(items))
}

// Push enqueues an item from inside a task running on the given
// worker. The item lands on the worker's local queue; if the local
// queue reaches 2K, the K oldest items spill to the global queue.
func (q *Queue[T]) Push(worker int, item T) {
	l := append(q.local[worker], item)
	q.noteEnqueued(1)
	if len(l) >= 2*q.k {
		// Spill directly under the global lock: append copies the items
		// into the global queue, so no intermediate spill slice is
		// needed and only the owner touches l afterwards.
		q.mu.Lock()
		q.global = append(q.global, l[:q.k]...)
		q.mu.Unlock()
		n := copy(l, l[q.k:])
		l = l[:n]
		q.cond.Broadcast()
	}
	q.local[worker] = l
}

func (q *Queue[T]) noteEnqueued(n int) {
	q.total.Add(int64(n))
	r := q.ready.Add(int64(n))
	for {
		peak := q.readyPeak.Load()
		if r <= peak || q.readyPeak.CompareAndSwap(peak, r) {
			return
		}
	}
}

// Cancel makes every worker stop dispatching new items: workers finish
// the item they are executing, skip everything still queued, and Run
// returns. Cancel is safe to call from any goroutine, including before
// Run starts (the cancellation is sticky), and is idempotent.
func (q *Queue[T]) Cancel() {
	q.canceled.Store(true)
	q.mu.Lock()
	q.done = true
	q.mu.Unlock()
	q.cond.Broadcast()
}

// Run executes fn on queued items until the queue drains and every
// worker is idle, or until Cancel is called. fn receives the executing
// worker's index (valid for Push) and the item. Run blocks until
// completion; the Queue can be reused afterwards (stats accumulate).
// If a task panicked, Run re-raises the first captured panic as a
// *parallel.WorkerPanic; if Abandon released the barrier early, Run
// panics parallel.ErrBarrierAbandoned.
func (q *Queue[T]) Run(fn func(worker int, item T)) {
	q.mu.Lock()
	q.done = q.canceled.Load() // a pre-Run Cancel sticks
	q.idle = 0
	q.mu.Unlock()
	var live atomic.Int64
	live.Store(int64(q.workers))
	allDone := make(chan struct{})
	for w := 0; w < q.workers; w++ {
		go func(w int) {
			defer func() {
				if live.Add(-1) == 0 {
					close(allDone)
				}
			}()
			q.worker(w, fn)
		}(w)
	}
	select {
	case <-allDone:
	case <-q.abandonCh:
		panic(parallel.ErrBarrierAbandoned)
	}
	q.trap.Rethrow()
}

// RunSerial is Run for a single-worker queue, executed inline on the
// calling goroutine: no goroutine is spawned and no completion channel
// is allocated, which is what keeps a persistent engine's steady state
// at zero allocations per run. The panic contract matches Run — the
// first task panic re-raises as a *parallel.WorkerPanic — but Abandon
// cannot release a RunSerial blocked in a wedged task (there is no
// coordinating goroutine to release), so callers must only use it when
// no force-abort facility (watchdog) is armed. Panics if the queue was
// built with more than one worker.
func (q *Queue[T]) RunSerial(fn func(worker int, item T)) {
	if q.workers != 1 {
		panic("worklist: RunSerial requires a single-worker queue")
	}
	q.mu.Lock()
	q.done = q.canceled.Load()
	q.idle = 0
	q.mu.Unlock()
	q.worker(0, fn)
	q.trap.Rethrow()
}

// RunOn is Run executed on a caller-provided worker gang instead of
// freshly spawned goroutines: gang worker w drives queue worker w. The
// gang must have exactly the queue's worker count. The panic and
// abandon contracts match Run — a task panic re-raises as a
// *parallel.WorkerPanic once the gang barrier completes, and aborting
// the gang (parallel.Gang.Abort) makes RunOn panic
// parallel.ErrBarrierAbandoned just like Abandon does for Run. Callers
// pairing RunOn with Abandon should abort the gang too, else wedged
// gang workers keep the barrier from completing.
func (q *Queue[T]) RunOn(g *parallel.Gang, fn func(worker int, item T)) {
	if g.Workers() != q.workers {
		panic("worklist: RunOn gang size mismatch")
	}
	q.mu.Lock()
	q.done = q.canceled.Load()
	q.idle = 0
	q.mu.Unlock()
	g.Run(func(w int) { q.worker(w, fn) })
	q.trap.Rethrow()
}

// Reset returns the queue to its pre-Run state while keeping the
// global and local queues' grown capacity, so a persistent engine can
// reuse one queue across runs without reallocating: pending items are
// dropped, cancellation is cleared, and the statistics start over
// (unlike back-to-back Run calls, which accumulate). It must not be
// called concurrently with Run, and an abandoned queue stays
// unusable — wedged workers may still hold its locals.
func (q *Queue[T]) Reset() {
	if q.abandoned.Load() {
		panic("worklist: Reset on abandoned queue")
	}
	q.mu.Lock()
	q.global = q.global[:0]
	q.idle = 0
	q.done = false
	q.mu.Unlock()
	for w := range q.local {
		q.local[w] = q.local[w][:0]
	}
	q.ready.Store(0)
	q.readyPeak.Store(0)
	q.total.Store(0)
	q.executed.Store(0)
	q.canceled.Store(false)
	// The trap needs no reset: Rethrow already cleared it on the Run
	// that captured the panic, and an abandoned queue never gets here.
}

// runItem executes one task, capturing a panic instead of crashing:
// the queue is canceled first, so peers stop dispatching while the
// panicking worker is still formatting its stack trace, and then the
// first panic wins the trap.
func (q *Queue[T]) runItem(w int, fn func(worker int, item T), item T) {
	defer func() {
		if v := recover(); v != nil {
			q.Cancel()
			q.trap.Capture(w, v)
		}
	}()
	fn(w, item)
}

// Abandon releases a Run blocked on workers that will never finish (a
// wedged task). It implies Cancel; the pending Run panics
// parallel.ErrBarrierAbandoned and the queue must not be reused —
// wedged workers may still be executing. Idempotent, any goroutine.
func (q *Queue[T]) Abandon() {
	q.Cancel()
	if q.abandoned.CompareAndSwap(false, true) {
		close(q.abandonCh)
	}
}

// Panic returns the first captured task panic, or nil. It is only
// meaningful after Run has returned or been abandoned.
func (q *Queue[T]) Panic() *parallel.WorkerPanic {
	return q.trap.Panic()
}

func (q *Queue[T]) worker(w int, fn func(worker int, item T)) {
	for {
		// Drain the local queue (LIFO for locality).
		for len(q.local[w]) > 0 {
			if q.canceled.Load() {
				return
			}
			l := q.local[w]
			item := l[len(l)-1]
			q.local[w] = l[:len(l)-1]
			q.ready.Add(-1)
			q.executed.Add(1)
			q.runItem(w, fn, item)
		}
		// Refill from the global queue, or terminate.
		q.mu.Lock()
		for len(q.global) == 0 || q.canceled.Load() {
			if q.done {
				q.mu.Unlock()
				return
			}
			q.idle++
			if q.idle == q.workers {
				q.done = true
				q.mu.Unlock()
				q.cond.Broadcast()
				return
			}
			q.cond.Wait()
			q.idle--
		}
		take := q.k
		if take > len(q.global) {
			take = len(q.global)
		}
		q.local[w] = append(q.local[w], q.global[len(q.global)-take:]...)
		q.global = q.global[:len(q.global)-take]
		q.mu.Unlock()
	}
}

// Stats is a snapshot of queue counters.
type Stats struct {
	// PeakReady is the maximum number of simultaneously queued items —
	// the paper's "maximum queue depth", its measure of available
	// task-level parallelism.
	PeakReady int64
	// Total is the number of items ever enqueued.
	Total int64
	// Executed is the number of items executed so far.
	Executed int64
}

// Stats returns a snapshot of the queue's counters.
func (q *Queue[T]) Stats() Stats {
	return Stats{
		PeakReady: q.readyPeak.Load(),
		Total:     q.total.Load(),
		Executed:  q.executed.Load(),
	}
}
