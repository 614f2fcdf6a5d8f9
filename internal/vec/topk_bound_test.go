package vec

import "testing"

// TestTopKSetBound pins the external-bound contract the sharded
// scatter-gather relies on: a bound arms pruning before the heap fills,
// rejects strictly-worse candidates while keeping boundary ties, only
// ever tightens, and survives Reset.
func TestTopKSetBound(t *testing.T) {
	tk := NewTopK(3)
	if tk.Pruning() {
		t.Fatal("fresh TopK reports Pruning")
	}
	tk.SetBound(5.0)
	if !tk.Pruning() {
		t.Fatal("bounded TopK does not report Pruning")
	}
	if got := tk.Threshold(); got != 5.0 {
		t.Fatalf("Threshold() = %v before full, want the bound 5.0", got)
	}
	// Strictly beyond the bound is rejected even though the heap has room.
	if tk.Push(1, 6.0) {
		t.Fatal("Push beyond bound succeeded")
	}
	// A boundary tie is kept: it could be a global top-k member.
	if !tk.Push(2, 5.0) {
		t.Fatal("Push at exactly the bound was rejected")
	}
	if !tk.Push(3, 1.0) || !tk.Push(4, 2.0) {
		t.Fatal("Push under bound rejected")
	}
	// Full now: Threshold reverts to the heap's kth distance.
	if !tk.Full() {
		t.Fatal("heap not full after 3 pushes")
	}
	if got := tk.Threshold(); got != 5.0 {
		t.Fatalf("Threshold() = %v when full, want heap max 5.0", got)
	}
	if tk.Push(5, 0.5) != true {
		t.Fatal("better candidate rejected when full")
	}
	res := tk.Results()
	if len(res) != 3 || res[0].ID != 5 || res[1].ID != 3 || res[2].ID != 4 {
		t.Fatalf("unexpected results %+v", res)
	}

	// Bounds only tighten.
	tk2 := NewTopK(2)
	tk2.SetBound(1.0)
	tk2.SetBound(9.0)
	if got := tk2.Threshold(); got != 1.0 {
		t.Fatalf("loosening SetBound took effect: Threshold() = %v, want 1.0", got)
	}

	// Reset keeps the bound (the fast-kernel re-rank depends on it).
	tk2.Push(0, 0.5)
	tk2.Reset()
	if !tk2.Pruning() {
		t.Fatal("Reset dropped the external bound")
	}
	if got := tk2.Threshold(); got != 1.0 {
		t.Fatalf("Threshold() after Reset = %v, want 1.0", got)
	}
	if tk2.Push(1, 1.5) {
		t.Fatal("Push beyond retained bound succeeded after Reset")
	}
}

// TestTopKReinit pins that Reinit, unlike Reset, returns a collector
// indistinguishable from NewTopK(k): empty, unbounded, sized for the new k.
func TestTopKReinit(t *testing.T) {
	tk := NewTopK(2)
	tk.SetBound(1.0)
	tk.Push(7, 0.5)
	tk.Reinit(3)
	if tk.Pruning() || tk.Len() != 0 || tk.Threshold() != maxFloat32 {
		t.Fatalf("Reinit kept state: pruning %v len %d threshold %v", tk.Pruning(), tk.Len(), tk.Threshold())
	}
	for i, d := range []float32{9, 3, 6, 1} {
		tk.Push(i, d)
	}
	res := tk.Results()
	if len(res) != 3 || res[0].ID != 3 || res[1].ID != 1 || res[2].ID != 2 {
		t.Fatalf("unexpected results after Reinit %+v", res)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Reinit(0) did not panic")
		}
	}()
	tk.Reinit(0)
}
