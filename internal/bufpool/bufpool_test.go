package bufpool

import (
	"sync"
	"testing"
)

// drain empties l and returns what it kept.
func drain[T any](l List[T]) []T {
	var kept []T
	for len(l) > 0 {
		kept = append(kept, <-l)
	}
	return kept
}

func TestGetCapacity(t *testing.T) {
	for _, size := range []int{0, 1, 255, 256, 257, 4 << 10, 1 << 20, 2 << 20} {
		b := Get(size)
		if len(b) != 0 {
			t.Fatalf("Get(%d) len = %d, want 0", size, len(b))
		}
		if cap(b) < size {
			t.Fatalf("Get(%d) cap = %d, want >= %d", size, cap(b), size)
		}
	}
}

func TestPutGetReuse(t *testing.T) {
	// Drain the class first so this test observes its own buffer.
	drain(classes[1].free)
	b := make([]byte, 0, 1<<10)
	Put(b)
	got := Get(1 << 10)
	if cap(got) < 1<<10 {
		t.Fatalf("reused cap = %d, want >= %d", cap(got), 1<<10)
	}
}

func TestPutRejectsTiny(t *testing.T) {
	Put(nil)
	Put(make([]byte, 0, 16)) // below smallest class: dropped, must not panic
}

func TestPutClassFitsGet(t *testing.T) {
	// A buffer put back must only satisfy Gets it has capacity for.
	Put(make([]byte, 0, 300)) // lands in the 256 class
	b := Get(256)
	if cap(b) < 256 {
		t.Fatalf("cap = %d, want >= 256", cap(b))
	}
}

func TestConcurrentChurn(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				b := Get(512)
				b = append(b, make([]byte, 100)...)
				Put(b)
			}
		}()
	}
	wg.Wait()
}

// TestPutDropsOversized: a buffer above the biggest class is dropped, so a
// frame of up to the transports' 64 MiB limit is never kept, and a Get from
// the biggest class never returns more than that class's size.
func TestPutDropsOversized(t *testing.T) {
	last := &classes[len(classes)-1]
	drain(last.free)
	Put(make([]byte, 0, last.size+4096))
	Put(make([]byte, 0, 2*last.size))
	if n := len(last.free); n != 0 {
		t.Fatalf("the %d B class keeps %d oversized buffers", last.size, n)
	}
	if b := Get(last.size); cap(b) != last.size {
		t.Fatalf("Get(%d) cap = %d, want a fresh %d", last.size, cap(b), last.size)
	}
}

// TestRetainedBound fills every class with the largest capacity it accepts
// and checks what waits against the figure the classes' doc states.
func TestRetainedBound(t *testing.T) {
	const documented = 20_708_872
	total := 0
	for i := range classes {
		drain(classes[i].free)
		largest := classes[len(classes)-1].size
		if i+1 < len(classes) {
			largest = classes[i+1].size - 1
		}
		// One buffer, put more times than the class has slots: the class
		// is drained again below, so no Get sees it twice.
		b := make([]byte, 0, largest)
		for n := 0; n <= cap(classes[i].free); n++ {
			Put(b)
		}
		for _, k := range drain(classes[i].free) {
			total += cap(k)
		}
	}
	if total != documented {
		t.Fatalf("the classes keep %d B when full, the doc says %d B", total, documented)
	}
}

type item struct{ n int }

// TestListNilKeepsNothing: Put on a nil List drops, and Get calls fresh.
func TestListNilKeepsNothing(t *testing.T) {
	var l List[*item]
	l.Put(&item{1})
	if v := l.Get(func() *item { return &item{2} }); v.n != 2 {
		t.Fatalf("a nil list returned a kept value %d", v.n)
	}
}

// TestListBound: Put past cap drops without blocking, Get returns kept
// values before it calls fresh, and calls fresh on an empty list.
func TestListBound(t *testing.T) {
	l := make(List[*item], 2)
	for n := 1; n <= 3; n++ {
		l.Put(&item{n}) // the third is dropped: a blocking Put would hang here
	}
	fresh := 0
	next := func() *item { fresh++; return &item{-1} }
	got := []int{l.Get(next).n, l.Get(next).n, l.Get(next).n}
	if got[0] != 1 || got[1] != 2 || got[2] != -1 || fresh != 1 {
		t.Fatalf("Get returned %v after %d fresh values, want [1 2 -1] after 1", got, fresh)
	}
}

// TestListWarmAllocatesNothing: once a value waits, a Get and Put of it
// allocate nothing, for a []byte as for a pointer.
func TestListWarmAllocatesNothing(t *testing.T) {
	bytes := make(List[[]byte], 1)
	bytes.Put(make([]byte, 0, 64))
	ptrs := make(List[*item], 1)
	ptrs.Put(new(item))
	if n := testing.AllocsPerRun(100, func() {
		bytes.Put(bytes.Get(func() []byte { return make([]byte, 0, 64) }))
		ptrs.Put(ptrs.Get(func() *item { return new(item) }))
	}); n != 0 {
		t.Fatalf("a warm Get and Put allocate %v", n)
	}
}

// TestListConcurrentChurn: eight goroutines share one list; a value handed
// to two of them at once is a reported race.
func TestListConcurrentChurn(t *testing.T) {
	l := make(List[*item], 4)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				v := l.Get(func() *item { return new(item) })
				v.n++
				l.Put(v)
			}
		}()
	}
	wg.Wait()
}
