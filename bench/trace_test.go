package main

import "testing"

// A span's self time is its length minus the union of its children: legs
// of a parallel fan-out overlap, and the overlap must be counted once.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "import", Start: 0, End: 100},
		{Name: "leg", Start: 10, End: 50},
		{Name: "leg", Start: 30, End: 70}, // overlaps the first leg
		{Name: "leg", Start: 80, End: 90},
		{Name: "repo", Start: 35, End: 45}, // inside both overlapping legs
		{Name: "repo", Start: 92, End: 98}, // the import's own
	}
	linked := linkSpans(spans)
	self := map[string]int64{}
	for i, st := range selfTimes(linked) {
		self[linked[i].Name] += st
	}
	// import: 100 - |[10,70] ∪ [80,90] ∪ [92,98]| = 100 - 76
	if self["import"] != 24 {
		t.Errorf("import self = %d, want 24", self["import"])
	}
	// legs: 40 + 40 + 10, minus the repo read inside the innermost leg
	if self["leg"] != 80 {
		t.Errorf("leg self = %d, want 80", self["leg"])
	}
	if self["repo"] != 16 {
		t.Errorf("repo self = %d, want 16", self["repo"])
	}
}

// A span nests under the innermost span that contains it; a span that only
// overlaps another is its sibling.
func TestLinkSpansPicksInnermostParent(t *testing.T) {
	linked := linkSpans([]span{
		{Name: "c", Start: 20, End: 30},
		{Name: "root", Start: 0, End: 100},
		{Name: "b", Start: 10, End: 60},
		{Name: "d", Start: 50, End: 80}, // overlaps b, contained only by root
	})
	parent := map[string]string{}
	for _, s := range linked {
		if s.Parent >= 0 {
			parent[s.Name] = linked[s.Parent].Name
		} else {
			parent[s.Name] = ""
		}
	}
	want := map[string]string{"root": "", "b": "root", "c": "b", "d": "root"}
	for k, v := range want {
		if parent[k] != v {
			t.Errorf("parent of %s = %q, want %q", k, parent[k], v)
		}
	}
}

// A child that sticks out of its parent is clipped to it.
func TestSelfTimeClipsChildrenToParent(t *testing.T) {
	linked := []span{
		{Name: "p", Start: 10, End: 20, Parent: -1},
		{Name: "c", Start: 5, End: 15, Parent: 0},
	}
	if self := selfTimes(linked); self[0] != 5 {
		t.Errorf("self = %d, want 5", self[0])
	}
}

// The spans of an interrogation tile it: their self times add up to the
// invoke span, whichever boundaries the run could observe, and the invoke
// span itself has nothing left over.
func TestInterrogationSpansTile(t *testing.T) {
	cases := []struct {
		name        string
		server      bool
		srvSendOut  int64
		wantAddUpTo bool
	}{
		{"both ends", true, 390, true},
		{"client end only", false, 0, true},
		// The reply was read before the server's Send returned: the two
		// spans overlap, so only the root's emptiness is claimed.
		{"early reply", true, 405, false},
	}
	for _, c := range cases {
		o := &opTrace{id: "x"}
		at := map[int]int64{
			bInvokeIn: 100, bStageOut: 110, bCliSendIn: 130, bCliSendOut: 150,
			bCliRecv: 400, bStageIn: 410, bInvokeOut: 430,
		}
		if c.server {
			at[bSrvRecv], at[bHandlerIn], at[bHandlerOut] = 200, 230, 300
			at[bSrvSendIn], at[bSrvSendOut] = 320, c.srvSendOut
		}
		for b, v := range at {
			o.mark(b, v)
		}
		linked := linkSpans(interrogationSpans(o))
		var total int64
		for i, st := range selfTimes(linked) {
			total += st
			if linked[i].Name == "invoke" && st != 0 {
				t.Errorf("%s: invoke has %d ns no layer accounts for", c.name, st)
			}
		}
		if c.wantAddUpTo && total != 330 {
			t.Errorf("%s: spans add up to %d, invoke is 330", c.name, total)
		}
	}
}

// The difference of two boundary sums is the mean time between them.
func TestBetweenIsMeanOfDifferences(t *testing.T) {
	tr := newTracer()
	for i := int64(0); i < 4; i++ {
		tr.bound[bInvokeIn].add(1000 * i)
		tr.bound[bInvokeOut].add(1000*i + 2000 + 1000*i) // latencies 2,3,4,5 µs
	}
	pair := []int{bInvokeIn, bInvokeOut}
	if us, n := tr.between(bInvokeIn, bInvokeOut), tr.mismatch(pair); us != 3.5 || n != 0 {
		t.Fatalf("between = %v, mismatch = %d, want 3.5 and 0", us, n)
	}
	tr.bound[bInvokeIn].add(1)
	if n := tr.mismatch(pair); n != 1 {
		t.Fatalf("mismatch = %d after one unmatched crossing, want 1", n)
	}
}
