package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs raises GOMAXPROCS so pools wider than the host's core count can
// be exercised (CI containers may expose a single CPU).
func withProcs(t *testing.T, n int) {
	t.Helper()
	old := runtime.GOMAXPROCS(0)
	if old < n {
		runtime.GOMAXPROCS(n)
		t.Cleanup(func() { runtime.GOMAXPROCS(old) })
	}
}

func TestNewClampsToGOMAXPROCS(t *testing.T) {
	withProcs(t, 4)
	max := runtime.GOMAXPROCS(0)
	for _, tc := range []struct{ ask, want int }{
		{0, max}, {-3, max}, {1, 1}, {2, 2}, {max, max}, {max + 100, max},
	} {
		p := New(tc.ask)
		if got := p.width; got != tc.want {
			t.Errorf("New(%d).width = %d, want %d", tc.ask, got, tc.want)
		}
		p.Close()
	}
	if New(1) != Serial {
		t.Error("New(1) should return the Serial pool")
	}
}

func TestLimit(t *testing.T) {
	withProcs(t, 4)
	p := New(4)
	defer p.Close()
	if v := p.Limit(2); v.width != 2 {
		t.Errorf("Limit(2).width = %d, want 2", v.width)
	}
	if v := p.Limit(100); v != p {
		t.Error("Limit above width should return the pool itself")
	}
	if v := p.Limit(0); v != p {
		t.Error("Limit(0) should return the pool itself")
	}
	if v := p.Limit(1); v != Serial {
		t.Error("Limit(1) should return Serial")
	}
	if v := Serial.Limit(7); v != Serial {
		t.Error("Serial.Limit should return Serial")
	}
	// Closing a view must not tear down the parent's workers.
	v := p.Limit(2)
	v.Close()
	var ran atomic.Int32
	inc := func() { ran.Add(1) }
	p.Do(inc, inc, inc, inc)
	if ran.Load() != 4 {
		t.Errorf("pool broken after closing a view: ran %d of 4", ran.Load())
	}
}

func TestDoPanicPropagation(t *testing.T) {
	withProcs(t, 4)
	p := New(4)
	defer p.Close()
	var others atomic.Int32
	defer func() {
		if r := recover(); r != "do-panic" {
			t.Errorf("recovered %v, want do-panic", r)
		}
		// Every non-panicking sibling still ran to completion.
		if others.Load() != 3 {
			t.Errorf("siblings ran %d times, want 3", others.Load())
		}
	}()
	inc := func() { others.Add(1) }
	p.Do(inc, func() { panic("do-panic") }, inc, inc)
	t.Error("Do should have panicked")
}

func TestSerialPanicPropagation(t *testing.T) {
	defer func() {
		if r := recover(); r != "serial-boom" {
			t.Errorf("recovered %v, want serial-boom", r)
		}
	}()
	Serial.Do(func() {}, func() { panic("serial-boom") })
}

func TestDo(t *testing.T) {
	withProcs(t, 4)
	p := New(4)
	defer p.Close()
	out := make([]int, 5)
	var fns []func()
	for i := range out {
		fns = append(fns, func() { out[i] = i * i })
	}
	p.Do(fns...)
	for i, v := range out {
		if v != i*i {
			t.Fatalf("Do slot %d = %d, want %d", i, v, i*i)
		}
	}
}

// TestNestedDo exercises Do issued from inside worker-executed tasks (a sweep
// cell that runs a federated planner): the inline-fallback submit must keep
// nesting deadlock-free.
func TestNestedDo(t *testing.T) {
	withProcs(t, 4)
	p := New(4)
	defer p.Close()
	var total atomic.Int64
	inner := make([]func(), 8)
	for i := range inner {
		inner[i] = func() { total.Add(1) }
	}
	outer := make([]func(), 64)
	for i := range outer {
		outer[i] = func() { p.Do(inner...) }
	}
	p.Do(outer...)
	if total.Load() != 64*8 {
		t.Fatalf("nested Do ran %d tasks, want %d", total.Load(), 64*8)
	}
}

// TestSharedPoolStress drives many concurrent Do callers through one pool.
// Run under -race this is the pool's data-race gate.
func TestSharedPoolStress(t *testing.T) {
	withProcs(t, 4)
	p := New(4)
	defer p.Close()
	const callers = 8
	const rounds = 50
	var wg sync.WaitGroup
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]float64, 16)
			fns := make([]func(), len(buf))
			for r := 0; r < rounds; r++ {
				for i := range fns {
					fns[i] = func() { buf[i] += float64(r + i) }
				}
				p.Do(fns...)
			}
			var want, got float64
			for i := range buf {
				got += buf[i]
				for r := 0; r < rounds; r++ {
					want += float64(r + i)
				}
			}
			if got != want {
				t.Errorf("stress caller %d: sum %v, want %v", c, got, want)
			}
		}()
	}
	wg.Wait()
}

// TestNewIOUnclamped verifies NewIO spawns exactly the requested worker
// count regardless of GOMAXPROCS — the property sweep throughput on small
// containers depends on.
func TestNewIOUnclamped(t *testing.T) {
	p := NewIO(8)
	defer p.Close()
	if got := p.width; got != 8 {
		t.Fatalf("NewIO(8).width = %d, want 8 (GOMAXPROCS=%d)", got, runtime.GOMAXPROCS(0))
	}
	if NewIO(1) != Serial || NewIO(0) != Serial {
		t.Error("NewIO(<=1) should return the Serial pool")
	}
}

// TestNewIOOverlapsBlockingTasks checks the buffered queue actually overlaps
// blocking work beyond the core count: 8 tasks that each block until all 8
// have started can only finish if 8 workers truly run them concurrently (an
// inline fallback on the submitter would deadlock the barrier, so a timeout
// guards the wait).
func TestNewIOOverlapsBlockingTasks(t *testing.T) {
	const n = 8
	p := NewIO(n)
	defer p.Close()
	var started sync.WaitGroup
	started.Add(n)
	fns := make([]func(), n)
	for i := range fns {
		fns[i] = func() {
			started.Done()
			started.Wait() // barrier: requires all n running at once
		}
	}
	done := make(chan struct{})
	go func() { p.Do(fns...); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("NewIO(8) failed to run 8 blocking tasks concurrently")
	}
}

// TestDoHonoursLimitWidth pins what Limit documents: a width-2 view of a
// four-worker pool runs at most two tasks at once (the caller and one
// helper), and does run two. Tasks block until released, so the count of
// tasks inside is exact; only "no third task starts" needs a grace period.
func TestDoHonoursLimitWidth(t *testing.T) {
	withProcs(t, 4)
	p := New(4)
	defer p.Close()
	view := p.Limit(2)
	// A hand-off needs a worker already parked on the queue: get all four
	// running first (a blocking send each, held at a barrier), and retry the
	// rare attempt that still finds none back at the queue.
	var up sync.WaitGroup
	up.Add(4)
	for i := 0; i < 4; i++ {
		p.tasks <- func() { up.Done(); up.Wait() }
	}
	up.Wait()
	for attempt := 0; ; attempt++ {
		var inside, peak atomic.Int32
		entered := make(chan struct{}, 8)
		release := make(chan struct{})
		fns := make([]func(), 8)
		for i := range fns {
			fns[i] = func() {
				c := inside.Add(1)
				for old := peak.Load(); c > old && !peak.CompareAndSwap(old, c); old = peak.Load() {
				}
				entered <- struct{}{}
				<-release
				inside.Add(-1)
			}
		}
		done := make(chan struct{})
		go func() { view.Do(fns...); close(done) }()
		<-entered
		paired := true
		select {
		case <-entered:
		case <-time.After(200 * time.Millisecond):
			paired = false // no worker was parked to take the helper
		}
		third := false
		if paired {
			select {
			case <-entered:
				third = true
			case <-time.After(50 * time.Millisecond):
			}
		}
		close(release)
		<-done
		if third || peak.Load() > 2 {
			t.Fatalf("Limit(2) view ran more than two tasks at once (peak %d)", peak.Load())
		}
		if paired {
			return
		}
		if attempt == 20 {
			t.Fatal("Limit(2) view never ran two tasks at once")
		}
	}
}

// TestDoRunsEachTaskOnce: the claim counter hands every index to exactly one
// goroutine at any width, clamped or not.
func TestDoRunsEachTaskOnce(t *testing.T) {
	withProcs(t, 4)
	pools := map[string]*Pool{"serial": New(1), "new2": New(2), "new4": New(4), "io8": NewIO(8)}
	for name, p := range pools {
		ran := make([]atomic.Int32, 1000)
		fns := make([]func(), len(ran))
		for i := range fns {
			fns[i] = func() { ran[i].Add(1) }
		}
		p.Do(fns...)
		for i := range ran {
			if n := ran[i].Load(); n != 1 {
				t.Fatalf("%s: task %d ran %d times", name, i, n)
			}
		}
		p.Close()
	}
}

// TestDoLateHelperNotAwaited: completion is counted per task, so when every
// worker is busy and the helper only sits in the queue, Do returns as soon as
// the caller has run everything — and the helper, once a worker gets to it,
// finds nothing to claim.
func TestDoLateHelperNotAwaited(t *testing.T) {
	p := NewIO(2)
	defer p.Close()
	var parked sync.WaitGroup
	parked.Add(2)
	gate := make(chan struct{})
	for i := 0; i < 2; i++ {
		p.tasks <- func() { parked.Done(); <-gate }
	}
	parked.Wait()

	ran := make([]atomic.Int32, 10)
	fns := make([]func(), len(ran))
	for i := range fns {
		fns[i] = func() { ran[i].Add(1) }
	}
	done := make(chan struct{})
	go func() { p.Do(fns...); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Do waited for a helper no worker had started")
	}

	// Unpark the workers and hold both at a barrier: the queue is FIFO, so by
	// then the queued helper has been taken and has returned.
	close(gate)
	var barrier sync.WaitGroup
	barrier.Add(2)
	for i := 0; i < 2; i++ {
		p.tasks <- func() { barrier.Done(); barrier.Wait() }
	}
	barrier.Wait()
	for i := range ran {
		if n := ran[i].Load(); n != 1 {
			t.Fatalf("task %d ran %d times", i, n)
		}
	}
}

// BenchmarkPoolDo puts a number on Do's hand-off: 40 tasks of ≈ 100 µs — one
// federated round's covariance or solve fan-out — at widths 1 and 2. Serial is
// the floor (40 × 100 µs); width 2 should read half of it plus the hand-off.
func BenchmarkPoolDo(b *testing.B) {
	spin := func() {
		for t0 := time.Now(); time.Since(t0) < 100*time.Microsecond; {
		}
	}
	fns := make([]func(), 40)
	for i := range fns {
		fns[i] = spin
	}
	for _, width := range []int{1, 2} {
		b.Run(fmt.Sprintf("width%d", width), func(b *testing.B) {
			if runtime.GOMAXPROCS(0) < width {
				b.Skipf("GOMAXPROCS %d < %d", runtime.GOMAXPROCS(0), width)
			}
			p := New(width)
			defer p.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Do(fns...)
			}
		})
	}
}
