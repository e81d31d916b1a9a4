package serve

import "testing"

// TestPendingResolveBeforeSent pins the retry bookkeeping against an
// ack that overtakes the send's return: the resolution waits until the
// payload is recorded, an overloaded shed is then queued for retry, and
// nothing stays in flight — so the final drain terminates.
func TestPendingResolveBeforeSent(t *testing.T) {
	p := newPending()
	p.resolved(7, CodeOverloaded)
	p.resolved(8, CodeOK)
	if _, ok, inflight := p.next(); ok || inflight != 0 {
		t.Fatalf("before sent: queued=%v inflight=%d, want nothing", ok, inflight)
	}
	p.sent(7, payload{addrs: []uint64{64}, writes: []bool{true}})
	p.sent(8, payload{addrs: []uint64{128}, writes: []bool{false}})
	pl, ok, inflight := p.next()
	if !ok || pl.attempts != 1 || len(pl.addrs) != 1 || pl.addrs[0] != 64 {
		t.Fatalf("early overloaded shed not queued for retry: ok=%v %+v", ok, pl)
	}
	if inflight != 0 {
		t.Errorf("in flight = %d after both batches resolved, want 0", inflight)
	}
	if _, ok, inflight := p.next(); ok || inflight != 0 {
		t.Errorf("early ack queued a retry or stayed in flight: queued=%v inflight=%d", ok, inflight)
	}

	// The usual order still works: sent, then resolved.
	p.sent(9, payload{attempts: 3})
	if _, _, inflight := p.next(); inflight != 1 {
		t.Fatalf("in flight = %d after a send, want 1", inflight)
	}
	p.resolved(9, CodeOverloaded)
	if pl, ok, inflight := p.next(); !ok || pl.attempts != 4 || inflight != 0 {
		t.Errorf("shed after send: ok=%v attempts=%d inflight=%d, want true/4/0", ok, pl.attempts, inflight)
	}
}
