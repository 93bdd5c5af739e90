package metrics

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
)

// callAllOnNil invokes every exported method of a nil receiver of
// ptrType with zero-valued arguments and returns each method's results
// by name. A method that dereferences the receiver panics the test.
func callAllOnNil(t *testing.T, ptrType reflect.Type) map[string][]reflect.Value {
	t.Helper()
	nilRecv := reflect.Zero(ptrType)
	out := make(map[string][]reflect.Value)
	for i := 0; i < ptrType.NumMethod(); i++ {
		m := ptrType.Method(i)
		args := make([]reflect.Value, m.Type.NumIn()-1)
		for j := range args {
			args[j] = reflect.Zero(m.Type.In(j + 1))
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("(%v).%s on a nil receiver panicked: %v", ptrType, m.Name, r)
				}
			}()
			out[m.Name] = nilRecv.Method(i).Call(args)
		}()
	}
	return out
}

// TestNilReceiverNoOp pins the nil-safety contract kernels rely on
// when they run without an arena: every Counters and ServeCounters
// method is callable on a nil receiver and returns zero values.
func TestNilReceiverNoOp(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeOf((*Counters)(nil)), reflect.TypeOf((*ServeCounters)(nil))} {
		results := callAllOnNil(t, typ)
		if len(results) == 0 {
			t.Fatalf("%v has no methods to check", typ)
		}
		for name, res := range results {
			for _, v := range res {
				if !v.IsZero() {
					t.Errorf("(%v).%s on a nil receiver returned %v, want the zero value", typ, name, v)
				}
			}
		}
	}
}

// TestAddBFSLevelConcurrent checks that concurrent level records keep
// the peak at the true maximum frontier and count every bitmap level.
// The goroutines record interleaved rising ramps (goroutine g records
// i*goroutines+g), so near the end every call raises the peak and the
// compare-and-swap loop is contended where a lost update would leave a
// smaller value behind.
func TestAddBFSLevelConcurrent(t *testing.T) {
	const (
		goroutines = 4
		perG       = 2000
		trials     = 20
		n          = goroutines * perG
	)
	for trial := 0; trial < trials; trial++ {
		var c Counters
		var wg sync.WaitGroup
		start := make(chan struct{})
		for g := 0; g < goroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < perG; i++ {
					f := int64(i*goroutines + g)
					c.AddBFSLevel(f, f%3 == 0)
				}
			}(g)
		}
		close(start)
		wg.Wait()

		s := c.Snapshot()
		if s.FrontierPeak != n-1 {
			t.Fatalf("trial %d: FrontierPeak = %d, want %d", trial, s.FrontierPeak, n-1)
		}
		if want := int64((n + 2) / 3); s.BitmapLevels != want {
			t.Fatalf("trial %d: BitmapLevels = %d, want %d", trial, s.BitmapLevels, want)
		}
		if s.BFSLevels != n {
			t.Fatalf("trial %d: BFSLevels = %d, want %d", trial, s.BFSLevels, n)
		}
		if want := int64(n) * (n - 1) / 2; s.FrontierNodes != want {
			t.Fatalf("trial %d: FrontierNodes = %d, want %d", trial, s.FrontierNodes, want)
		}
	}
}

// setEveryCounter stores a distinct non-zero value into every atomic
// field of the struct ptr points to and returns the values by name.
func setEveryCounter(t *testing.T, ptr any) map[string]int64 {
	t.Helper()
	v := reflect.ValueOf(ptr).Elem()
	want := make(map[string]int64)
	for i := 0; i < v.NumField(); i++ {
		a, ok := v.Field(i).Addr().Interface().(*atomic.Int64)
		if !ok {
			t.Fatalf("%s.%s is not an atomic.Int64", v.Type(), v.Type().Field(i).Name)
		}
		a.Store(int64(i + 1))
		want[v.Type().Field(i).Name] = int64(i + 1)
	}
	return want
}

// checkSnapshot requires every field of snap named in want to hold the
// wanted value.
func checkSnapshot(t *testing.T, snap any, want map[string]int64) {
	t.Helper()
	v := reflect.ValueOf(snap)
	for name, w := range want {
		f := v.FieldByName(name)
		if !f.IsValid() {
			t.Errorf("%s has no field %s", v.Type(), name)
			continue
		}
		if f.Int() != w {
			t.Errorf("%s.%s = %d, want %d", v.Type(), name, f.Int(), w)
		}
	}
}

// TestSnapshotCopies checks that Snapshot copies every counter by
// value: the snapshot reports each field, and later adds do not reach
// an earlier snapshot.
func TestSnapshotCopies(t *testing.T) {
	var c Counters
	want := setEveryCounter(t, &c)
	snap := c.Snapshot()
	checkSnapshot(t, snap, want)

	c.AddTrimRound(5)
	c.AddBFSLevel(1<<40, true)
	c.AddTask()
	c.AddReuse(64)
	checkSnapshot(t, snap, want)
	if now := c.Snapshot(); now.TrimRounds == snap.TrimRounds || now.FrontierPeak != 1<<40 {
		t.Fatalf("later snapshot missed the adds: %+v", now)
	}

	var sc ServeCounters
	swant := setEveryCounter(t, &sc)
	ssnap := sc.Snapshot()
	checkSnapshot(t, ssnap, swant)
	sc.Accepted.Add(10)
	sc.IncrNoops.Add(10)
	checkSnapshot(t, ssnap, swant)
}

// TestResetZeroesEveryCounter checks Reset clears every field a
// Snapshot reports, so a persistent engine starts each run at zero.
func TestResetZeroesEveryCounter(t *testing.T) {
	var c Counters
	setEveryCounter(t, &c)
	c.Reset()
	if s := c.Snapshot(); s != (Snapshot{}) {
		t.Fatalf("after Reset: %+v", s)
	}
	if p := c.Progress(); p != 0 {
		t.Fatalf("Progress after Reset = %d", p)
	}
}
