package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPumpAllRecordsApplied drives a started slot from concurrent
// submitters and checks nothing is lost or doubled: every record
// reaches the backend exactly once and every batch's done callback
// fires exactly once.
func TestPumpAllRecordsApplied(t *testing.T) {
	fb := newFakeBackend(1)
	s := NewServer(Config{Backend: fb, CoalesceRecords: 32})
	s.Start()
	const (
		submitters = 4
		perG       = 50
		recsEach   = 8
	)
	var acked atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				recs := accessRecs(recsEach, uint64(g)<<32|uint64(i)<<16)
				for {
					err := s.Submit(0, uint64(i), recs, func(r Result) {
						if r.Err == nil {
							acked.Add(1)
						}
					})
					if err == nil {
						break
					}
					if !errors.Is(err, ErrOverloaded) {
						t.Errorf("Submit: %v", err)
						return
					}
					time.Sleep(50 * time.Microsecond)
				}
			}
		}(g)
	}
	wg.Wait()
	s.Drain()
	if got := acked.Load(); got != submitters*perG {
		t.Errorf("acked %d batches, want %d", got, submitters*perG)
	}
	fb.mu.Lock()
	applied := len(fb.addrs)
	fb.mu.Unlock()
	if want := submitters * perG * recsEach; applied != want {
		t.Errorf("backend saw %d access records, want %d", applied, want)
	}
}

// TestPumpDrainAirtight pins that Drain on a started server retires
// every accepted batch exactly once while the pump goroutine races the
// submitter.
func TestPumpDrainAirtight(t *testing.T) {
	fb := newFakeBackend(1)
	s := NewServer(Config{Backend: fb})
	s.Start()
	var resolved atomic.Int64
	accepted := 0
	for i := 0; i < 500; i++ {
		err := s.Submit(0, uint64(i), accessRecs(2, uint64(i)<<12), func(Result) {
			resolved.Add(1)
		})
		if err == nil {
			accepted++
		}
	}
	s.Drain()
	if got := resolved.Load(); got != int64(accepted) {
		t.Errorf("resolved %d of %d accepted batches", got, accepted)
	}
	if err := s.Submit(0, 9999, accessRecs(1, 0), nil); !errors.Is(err, ErrDraining) {
		t.Errorf("post-drain Submit err = %v, want ErrDraining", err)
	}
}
