package serve

import (
	"errors"
	"fmt"

	"artmem/internal/core"
	"artmem/internal/tenancy"
)

// Serving errors. CodeFromError folds these — and the tenancy control
// plane's backpressure errors — onto wire status codes.
var (
	// ErrOverloaded is Submit's backpressure signal: the tenant's
	// ingress queue is at capacity and the batch was shed, not queued.
	ErrOverloaded = errors.New("serve: tenant queue full")
	// ErrDraining reports work refused because the server (or the
	// tenant's slot) is draining.
	ErrDraining = errors.New("serve: draining")
	// ErrBadTenant reports an out-of-range or unoccupied tenant slot.
	ErrBadTenant = errors.New("serve: no such tenant")
)

// CodeFromError maps a serving or tenancy error onto the wire status
// code a Reject frame carries. The tenancy plane's backpressure errors
// (ErrRegistrationThrottled, ErrAdmissionDenied, ErrPlaneFull) all
// surface as CodeThrottled — "retry next control period" — so a remote
// client sees the arbiter's admission semantics, not a generic failure.
func CodeFromError(err error) byte {
	switch {
	case err == nil:
		return CodeOK
	case errors.Is(err, ErrOverloaded):
		return CodeOverloaded
	case errors.Is(err, ErrDraining):
		return CodeDraining
	case errors.Is(err, ErrBadTenant):
		return CodeBadTenant
	case errors.Is(err, ErrMalformed):
		return CodeMalformed
	case errors.Is(err, tenancy.ErrRegistrationThrottled),
		errors.Is(err, tenancy.ErrAdmissionDenied),
		errors.Is(err, tenancy.ErrPlaneFull):
		return CodeThrottled
	}
	return CodeBadTenant
}

// Backend is the machine surface the server pumps coalesced request
// batches into. core.System (single-tenant, slot 0) and
// core.MultiSystem (slot = plane slot) both adapt to it; tests use toy
// implementations.
type Backend interface {
	// Slots is the number of tenant slots the backend serves.
	Slots() int
	// Check reports whether slot currently accepts traffic: nil for an
	// active slot, ErrBadTenant / ErrDraining (or a tenancy error) for
	// one that does not. Called per batch on the submit path.
	Check(slot int) error
	// AccessBatch applies a batch of accesses on behalf of slot.
	AccessBatch(slot int, addrs []uint64, writes []bool)
	// AllocRange first-touch allocates [addr, addr+size) for slot,
	// returning pages touched.
	AllocRange(slot int, addr, size uint64) int
	// FreeRange unallocates slot's pages of [addr, addr+size),
	// returning pages freed.
	FreeRange(slot int, addr, size uint64) int
}

// systemBackend adapts the single-tenant runtime: one slot, always
// active.
type systemBackend struct{ s *core.System }

// NewSystemBackend wraps a single-tenant System as a one-slot Backend.
func NewSystemBackend(s *core.System) Backend { return systemBackend{s} }

func (b systemBackend) Slots() int { return 1 }

func (b systemBackend) Check(slot int) error {
	if slot != 0 {
		return fmt.Errorf("%w: slot %d on a single-tenant system", ErrBadTenant, slot)
	}
	return nil
}

func (b systemBackend) AccessBatch(slot int, addrs []uint64, writes []bool) {
	b.s.AccessBatch(addrs, writes)
}

func (b systemBackend) AllocRange(slot int, addr, size uint64) int {
	return b.s.AllocRange(addr, size)
}

func (b systemBackend) FreeRange(slot int, addr, size uint64) int {
	return b.s.FreeRange(addr, size)
}

// multiBackend adapts the multi-tenant runtime: one slot per plane
// slot, admission gated on the slot's lifecycle state.
type multiBackend struct {
	s         *core.MultiSystem
	slotBytes int64
}

// NewMultiBackend wraps a MultiSystem as a Backend whose slots are the
// tenancy plane's slots. Only Active slots accept traffic: an Empty
// slot rejects with ErrBadTenant, a Draining one with ErrDraining —
// a departing tenant's stream stops at the boundary instead of
// re-growing the resident set mid-reclamation.
//
// slotBytes, when > 0, is the per-slot address-region size: client
// addresses are tenant-relative and the backend rebases slot i's
// traffic to [i*slotBytes, ...), matching artmemd's slot-region
// machine layout, so every client addresses its own region from 0.
// 0 passes addresses through machine-global.
func NewMultiBackend(s *core.MultiSystem, slotBytes int64) Backend {
	return multiBackend{s, slotBytes}
}

// rebase maps a tenant-relative address to the slot's machine region.
func (b multiBackend) rebase(slot int, addr uint64) uint64 {
	if b.slotBytes <= 0 {
		return addr
	}
	return addr%uint64(b.slotBytes) + uint64(slot)*uint64(b.slotBytes)
}

func (b multiBackend) Slots() int { return b.s.NumTenants() }

func (b multiBackend) Check(slot int) error {
	if slot < 0 || slot >= b.s.NumTenants() {
		return fmt.Errorf("%w: slot %d of %d", ErrBadTenant, slot, b.s.NumTenants())
	}
	switch b.s.TenantState(slot) {
	case tenancy.StateActive:
		return nil
	case tenancy.StateDraining:
		return fmt.Errorf("%w: tenant slot %d is draining", ErrDraining, slot)
	}
	return fmt.Errorf("%w: tenant slot %d is empty", ErrBadTenant, slot)
}

func (b multiBackend) AccessBatch(slot int, addrs []uint64, writes []bool) {
	if b.slotBytes > 0 {
		// The server's pump owns addrs (its coalescing scratch), so
		// rebasing in place is safe.
		for i, a := range addrs {
			addrs[i] = b.rebase(slot, a)
		}
	}
	b.s.AccessBatch(slot, addrs, writes)
}

func (b multiBackend) AllocRange(slot int, addr, size uint64) int {
	if b.slotBytes > 0 && size > uint64(b.slotBytes) {
		size = uint64(b.slotBytes)
	}
	return b.s.AllocRange(slot, b.rebase(slot, addr), size)
}

func (b multiBackend) FreeRange(slot int, addr, size uint64) int {
	if b.slotBytes > 0 && size > uint64(b.slotBytes) {
		size = uint64(b.slotBytes)
	}
	return b.s.FreeRange(slot, b.rebase(slot, addr), size)
}
