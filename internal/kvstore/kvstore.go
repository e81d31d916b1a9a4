// Package kvstore implements a memcached-like in-memory key-value store
// over a virtual address space, the substrate behind the paper's YCSB
// workloads (Table 3: "In-Memory Database", 32GB footprint).
//
// Like memcached, the store consists of a hash index and slab-allocated
// values. Only the index metadata is held in real memory; values occupy
// *virtual* addresses, and every operation reports the addresses it would
// touch (bucket probes, item header, value bytes) through a touch
// callback. This yields the YCSB access pattern the paper measured —
// hash-scattered index probes plus value reads whose popularity follows
// the YCSB request distribution — without materializing tens of GB.
package kvstore

import "fmt"

// Touch reports one logical memory access at a virtual address.
type Touch func(addr uint64, write bool)

// Config sizes a Store.
type Config struct {
	// Base is the first virtual address of the store's region.
	Base uint64
	// NumBuckets is the hash-index size. Should be on the order of the
	// expected item count for O(1) chains.
	NumBuckets int
	// BucketBytes is the virtual size of one index bucket.
	BucketBytes int64
	// ValueBytes is the virtual size of each stored value (memcached
	// slab class). YCSB's default record is 1KB.
	ValueBytes int64
	// ValueTouchStride is the spacing of reported touches within a value
	// read/write; 0 defaults to 256 (one touch per 4 cachelines,
	// approximating a streaming copy with hardware prefetch).
	ValueTouchStride int64
}

// Store is the key-value store. It is not safe for concurrent use.
type Store struct {
	cfg      Config
	slabBase uint64
	nextSlab uint64
	// items maps key → virtual value address. This is the only real
	// memory the store consumes (16 bytes per item plus map overhead).
	items map[uint64]uint64

	gets, puts, hits uint64
}

// New returns an empty store. It panics on a non-positive geometry.
func New(cfg Config) *Store {
	if cfg.NumBuckets <= 0 || cfg.BucketBytes <= 0 || cfg.ValueBytes <= 0 {
		panic(fmt.Sprintf("kvstore: invalid config %+v", cfg))
	}
	if cfg.ValueTouchStride <= 0 {
		cfg.ValueTouchStride = 256
	}
	s := &Store{
		cfg:   cfg,
		items: make(map[uint64]uint64),
	}
	s.slabBase = cfg.Base + uint64(cfg.NumBuckets)*uint64(cfg.BucketBytes)
	s.nextSlab = s.slabBase
	return s
}

// FootprintFor predicts the footprint after storing numItems items.
func (c Config) FootprintFor(numItems int) int64 {
	vb := c.ValueBytes
	return int64(c.NumBuckets)*c.BucketBytes + int64(numItems)*vb
}

// bucketAddr returns the index-bucket address for a key.
func (s *Store) bucketAddr(key uint64) uint64 {
	h := key * 0x9e3779b97f4a7c15
	return s.cfg.Base + (h%uint64(s.cfg.NumBuckets))*uint64(s.cfg.BucketBytes)
}

// touchValue reports the touches of reading or writing a whole value.
func (s *Store) touchValue(addr uint64, write bool, touch Touch) {
	for off := int64(0); off < s.cfg.ValueBytes; off += s.cfg.ValueTouchStride {
		touch(addr+uint64(off), write)
	}
}

// Put stores (or overwrites) key, reporting its accesses.
func (s *Store) Put(key uint64, touch Touch) {
	s.puts++
	touch(s.bucketAddr(key), true)
	addr, ok := s.items[key]
	if !ok {
		addr = s.nextSlab
		s.nextSlab += uint64(s.cfg.ValueBytes)
		s.items[key] = addr
	}
	s.touchValue(addr, true, touch)
}

// Get looks up key, reporting its accesses, and returns whether it hit.
func (s *Store) Get(key uint64, touch Touch) bool {
	s.gets++
	touch(s.bucketAddr(key), false)
	addr, ok := s.items[key]
	if !ok {
		return false
	}
	s.hits++
	s.touchValue(addr, false, touch)
	return true
}

// ReadModifyWrite performs YCSB workload F's operation: read the value,
// then write it back.
func (s *Store) ReadModifyWrite(key uint64, touch Touch) bool {
	if !s.Get(key, touch) {
		return false
	}
	touch(s.bucketAddr(key), false)
	addr := s.items[key]
	s.touchValue(addr, true, touch)
	s.puts++
	return true
}
