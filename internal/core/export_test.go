package core

import "artmem/internal/memsim"

// Access performs one application memory access on behalf of tenant i:
// the machine charges the access (and any first-touch allocation) to
// that tenant.
func (s *MultiSystem) Access(tenant int, addr uint64, write bool) {
	s.mu.Lock()
	s.m.SetCurrentTenant(memsim.TenantID(tenant))
	s.m.Access(addr, write)
	s.mu.Unlock()
}
