package kvstore

import (
	"testing"
	"testing/quick"
)

func collect() (Touch, *[]uint64, *[]bool) {
	addrs := &[]uint64{}
	writes := &[]bool{}
	return func(a uint64, w bool) {
		*addrs = append(*addrs, a)
		*writes = append(*writes, w)
	}, addrs, writes
}

func testStore() *Store {
	return New(Config{Base: 1 << 20, NumBuckets: 128, BucketBytes: 64,
		ValueBytes: 1024, ValueTouchStride: 256})
}

func TestNewPanicsOnBadConfig(t *testing.T) {
	for _, cfg := range []Config{
		{NumBuckets: 0, BucketBytes: 64, ValueBytes: 64},
		{NumBuckets: 4, BucketBytes: 0, ValueBytes: 64},
		{NumBuckets: 4, BucketBytes: 64, ValueBytes: 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("no panic for %+v", cfg)
				}
			}()
			New(cfg)
		}()
	}
}

func TestPutThenGet(t *testing.T) {
	s := testStore()
	touch, _, _ := collect()
	s.Put(42, touch)
	if len(s.items) != 1 {
		t.Fatalf("Len = %d", len(s.items))
	}
	if !s.Get(42, touch) {
		t.Fatal("Get(42) missed after Put")
	}
	if s.Get(43, touch) {
		t.Fatal("Get(43) hit without Put")
	}
	gets, puts, hits := s.Stats()
	if gets != 2 || puts != 1 || hits != 1 {
		t.Errorf("stats = %d/%d/%d, want 2/1/1", gets, puts, hits)
	}
}

func TestPutOverwriteReusesSlab(t *testing.T) {
	s := testStore()
	touch, _, _ := collect()
	s.Put(1, touch)
	f1 := s.Footprint()
	s.Put(1, touch) // overwrite: no new slab
	if s.Footprint() != f1 {
		t.Errorf("overwrite grew footprint %d → %d", f1, s.Footprint())
	}
	s.Put(2, touch)
	if s.Footprint() != f1+1024 {
		t.Errorf("new key grew footprint to %d, want %d", s.Footprint(), f1+1024)
	}
}

func TestGetTouchesBucketThenValue(t *testing.T) {
	s := testStore()
	touch, addrs, writes := collect()
	s.Put(7, touch)
	*addrs, *writes = nil, nil
	s.Get(7, touch)
	// 1 bucket probe + 1024/256 = 4 value touches.
	if len(*addrs) != 5 {
		t.Fatalf("Get touched %d addresses, want 5", len(*addrs))
	}
	// Bucket probe lies in the index region, value touches in the slab.
	idxEnd := uint64(1<<20) + 128*64
	if (*addrs)[0] >= idxEnd {
		t.Errorf("first touch %#x not in index region", (*addrs)[0])
	}
	for _, a := range (*addrs)[1:] {
		if a < idxEnd {
			t.Errorf("value touch %#x inside index region", a)
		}
	}
	for i, w := range *writes {
		if w {
			t.Errorf("touch %d of a Get was a write", i)
		}
	}
}

func TestValueTouchesAreContiguousStride(t *testing.T) {
	s := testStore()
	touch, addrs, _ := collect()
	s.Put(9, touch)
	*addrs = nil
	s.Get(9, touch)
	vt := (*addrs)[1:]
	for i := 1; i < len(vt); i++ {
		if vt[i]-vt[i-1] != 256 {
			t.Errorf("value touch stride %d, want 256", vt[i]-vt[i-1])
		}
	}
}

func TestMissTouchesOnlyBucket(t *testing.T) {
	s := testStore()
	touch, addrs, _ := collect()
	s.Get(999, touch)
	if len(*addrs) != 1 {
		t.Errorf("miss touched %d addresses, want 1", len(*addrs))
	}
}

func TestReadModifyWrite(t *testing.T) {
	s := testStore()
	touch, addrs, writes := collect()
	if s.ReadModifyWrite(5, touch) {
		t.Fatal("RMW hit on absent key")
	}
	s.Put(5, touch)
	*addrs, *writes = nil, nil
	if !s.ReadModifyWrite(5, touch) {
		t.Fatal("RMW missed present key")
	}
	// Read pass (5 touches, no writes) + write pass (1 bucket read + 4
	// value writes).
	nw := 0
	for _, w := range *writes {
		if w {
			nw++
		}
	}
	if nw != 4 {
		t.Errorf("RMW produced %d writes, want 4 value writes", nw)
	}
	_, puts, _ := s.Stats()
	if puts != 2 { // initial Put + RMW's write-back
		t.Errorf("puts = %d, want 2", puts)
	}
}

func TestFootprintFor(t *testing.T) {
	cfg := Config{Base: 0, NumBuckets: 100, BucketBytes: 64, ValueBytes: 1024}
	want := int64(100*64 + 50*1024)
	if got := cfg.FootprintFor(50); got != want {
		t.Errorf("FootprintFor = %d, want %d", got, want)
	}
}

// Property: Get hits exactly the set of keys previously Put, and all
// touches stay within [Base, Base+Footprint).
func TestStoreConsistencyProperty(t *testing.T) {
	f := func(putKeys, probeKeys []uint64) bool {
		s := testStore()
		inStore := map[uint64]bool{}
		nop := func(uint64, bool) {}
		for _, k := range putKeys {
			s.Put(k, nop)
			inStore[k] = true
		}
		ok := true
		check := func(a uint64, _ bool) {
			lo := uint64(1 << 20)
			if a < lo || a >= lo+uint64(s.Footprint()) {
				ok = false
			}
		}
		for _, k := range probeKeys {
			if s.Get(k, check) != inStore[k] {
				return false
			}
		}
		return ok && len(s.items) == len(inStore)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkGet(b *testing.B) {
	s := New(Config{NumBuckets: 100000, BucketBytes: 64, ValueBytes: 1024})
	nop := func(uint64, bool) {}
	for k := uint64(0); k < 100000; k++ {
		s.Put(k, nop)
	}
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s.Get(uint64(i)%100000, nop)
	}
}
