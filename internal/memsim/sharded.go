package memsim

import (
	"errors"
	"fmt"
	"sync"

	"artmem/internal/telemetry"
	"artmem/internal/tier"
)

// ShardedMachine partitions one simulated machine into N independently
// locked shards so the access hot path scales across goroutines. Each
// shard is a complete *Machine — its own page-state arrays, per-tier
// capacity split, CPU cache slice, fractional virtual clock, and
// counter set — holding the global pages whose low shard-index bits
// select it (page p lives on shard p mod N, as local page p div N).
// Striding by the low bits spreads every contiguous hot range across
// all shards, so shard load tracks access volume rather than address
// layout; DESIGN.md §12 derives the key and the determinism argument.
//
// Concurrency contract, in two halves:
//
//   - The data plane — Access, AccessBatch, AccessBatchTenant,
//     AccessBatchParallel, RunShard, RunShardOf, TransferCapacity,
//     BorrowMovePage, BeginPeriod, Quiesce — takes the per-shard locks
//     and is safe to drive from any number of goroutines.
//   - The control plane — every other method, including the whole
//     memsim.Env surface — is deliberately lock-free, mirroring
//     Machine's single-threaded contract, so a policy hook fired
//     inside a locked access replay (a NUMA-hint fault handler calling
//     MovePageSync on the faulting page's own shard) never deadlocks
//     on a lock its caller already holds. Control-plane calls must be
//     externally synchronized against the data plane: either
//     single-threaded use (the harness), inside RunShard/Quiesce, or
//     with all access goroutines stopped.
//
// N must be a power of two. N=1 is the compatibility mode: exactly one
// inner Machine built from the unmodified Config, with every address
// and page ID passed through untranslated — byte-identical to a bare
// Machine, which is what keeps the deterministic experiment tables and
// the benchdiff gate stable when sharding is off.
type ShardedMachine struct {
	cfg       Config // the original, pre-split configuration
	numPages  int
	pageShift uint // 0 when PageSize is not a power of two
	nshards   int
	log2      uint   // log2(nshards)
	mask      uint64 // nshards-1

	shards []*Machine
	mu     []paddedMutex

	// epoch[s] counts cross-shard transactions shard s participated in
	// (capacity transfers and borrowed moves). Guarded by mu[s].
	epoch []uint64
	// borrowLeft[s] is shard s's remaining cross-shard borrow budget
	// this control period — the per-shard arbiter admission counter
	// (TierBPF-style: a shard may only pull capacity toward itself
	// while it has budget). Guarded by mu[s].
	borrowLeft []int

	// origCap pins the machine-wide capacity totals at construction
	// (one entry per tier of the chain); capacity transfers conserve
	// them and CheckInvariants recounts.
	origCap []int

	splitPool sync.Pool // *splitScratch, sized to nshards
}

// paddedMutex keeps neighbouring shard locks on separate cache lines so
// uncontended shards do not false-share.
type paddedMutex struct {
	sync.Mutex
	_ [56]byte
}

// splitScratch holds per-shard sub-batches during batch splitting; it
// is pooled so steady-state batch replay does not allocate.
type splitScratch struct {
	addrs  [][]uint64
	writes [][]bool
}

// Cross-shard transaction errors.
var (
	// ErrBorrowBudget reports a cross-shard capacity borrow denied
	// because the pulling shard exhausted its per-period budget.
	ErrBorrowBudget = errors.New("memsim: shard borrow budget exhausted")
	// ErrNoDonor reports a borrow attempt that found no shard with
	// spare capacity to lend.
	ErrNoDonor = errors.New("memsim: no shard has spare capacity to lend")
)

// NewShardedMachine builds a machine partitioned into nshards shards.
// It panics when nshards is not a positive power of two or exceeds the
// configured page count (a harness programming error, exactly like an
// invalid Config in NewMachine).
func NewShardedMachine(cfg Config, nshards int) *ShardedMachine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if nshards < 1 || nshards&(nshards-1) != 0 {
		panic(fmt.Sprintf("memsim: shard count %d is not a positive power of two", nshards))
	}
	total := cfg.NumPagesFor()
	if nshards > total {
		panic(fmt.Sprintf("memsim: %d shards for %d pages", nshards, total))
	}
	sm := &ShardedMachine{
		cfg:      cfg,
		numPages: total,
		nshards:  nshards,
		mask:     uint64(nshards - 1),
	}
	for 1<<sm.log2 < nshards {
		sm.log2++
	}
	sm.pageShift = 0
	for int64(1)<<sm.pageShift < cfg.PageSize {
		sm.pageShift++
	}
	if int64(1)<<sm.pageShift != cfg.PageSize {
		sm.pageShift = 0
	}
	sm.shards = make([]*Machine, nshards)
	sm.mu = make([]paddedMutex, nshards)
	sm.epoch = make([]uint64, nshards)
	sm.borrowLeft = make([]int, nshards)
	if nshards == 1 {
		// Compatibility mode: the one shard IS the seed machine.
		sm.shards[0] = NewMachine(cfg)
	} else if cfg.Chain != nil {
		// Chain machine: resolve percentage capacities against the
		// whole footprint once, then hand each shard an explicit
		// per-tier page split. An unbounded last tier stays unbounded
		// per shard (each sizes it to its local footprint), mirroring
		// the legacy slow-tier split below.
		resolved, err := cfg.Chain.Resolve(total)
		if err != nil {
			panic(err)
		}
		for _, r := range resolved {
			// A bounded tier must give every shard at least one page:
			// a zero split is invalid for middle tiers and would
			// silently mean "unbounded" for the last one.
			if r.Pages > 0 && r.Pages < nshards {
				panic(fmt.Sprintf("memsim: chain tier %s has %d pages, too small for %d shards",
					r.Name, r.Pages, nshards))
			}
		}
		lines := cfg.CacheLines
		for s := 0; s < nshards; s++ {
			local := (total - s + nshards - 1) / nshards // pages ≡ s (mod N)
			scfg := cfg
			scfg.FootprintBytes = int64(local) * cfg.PageSize
			chain := make([]tier.Desc, len(resolved))
			for i, r := range resolved {
				chain[i] = r.Desc
				chain[i].CapacityPct = 0
				chain[i].CapacityPages = r.Pages/nshards + extra(r.Pages, nshards, s)
			}
			scfg.Chain = chain
			scfg.CacheLines = lines/nshards + extra(lines, nshards, s)
			sm.shards[s] = NewMachine(scfg)
		}
	} else {
		fastCap := cfg.Fast.CapacityPages
		slowCap := cfg.Slow.CapacityPages
		lines := cfg.CacheLines
		for s := 0; s < nshards; s++ {
			local := (total - s + nshards - 1) / nshards // pages ≡ s (mod N)
			scfg := cfg
			scfg.FootprintBytes = int64(local) * cfg.PageSize
			scfg.Fast.CapacityPages = fastCap/nshards + extra(fastCap, nshards, s)
			if slowCap > 0 {
				scfg.Slow.CapacityPages = slowCap/nshards + extra(slowCap, nshards, s)
			}
			scfg.CacheLines = lines/nshards + extra(lines, nshards, s)
			sm.shards[s] = NewMachine(scfg)
		}
	}
	sm.origCap = make([]int, sm.shards[0].Tiers())
	for t := range sm.origCap {
		for _, m := range sm.shards {
			sm.origCap[t] += m.CapacityPages(TierID(t))
		}
	}
	// Until a control plane installs per-period budgets (BeginPeriod),
	// borrowing is effectively unmetered.
	for s := range sm.borrowLeft {
		sm.borrowLeft[s] = total
	}
	sm.splitPool.New = func() any {
		return &splitScratch{
			addrs:  make([][]uint64, nshards),
			writes: make([][]bool, nshards),
		}
	}
	return sm
}

// extra distributes a split's remainder deterministically: the low
// rem shards get one extra unit.
func extra(total, n, s int) int {
	if s < total%n {
		return 1
	}
	return 0
}

// NumShards returns the shard count.
func (sm *ShardedMachine) NumShards() int { return sm.nshards }

// Shard returns shard s's inner machine, for attach-time wiring
// (per-shard policies bind to it directly). All use of the returned
// machine after access goroutines start must happen under RunShard.
func (sm *ShardedMachine) Shard(s int) *Machine { return sm.shards[s] }

// ShardOf returns the shard that owns global page p.
func (sm *ShardedMachine) ShardOf(p PageID) int { return int(uint64(p) & sm.mask) }

// LocalPage returns p's page ID within its owning shard.
func (sm *ShardedMachine) LocalPage(p PageID) PageID { return p >> sm.log2 }

// GlobalPage returns the global ID of shard s's local page lp.
func (sm *ShardedMachine) GlobalPage(s int, lp PageID) PageID {
	return lp<<sm.log2 | PageID(s)
}

// globalPageOf mirrors Machine.PageOf on the pre-split address space.
func (sm *ShardedMachine) globalPageOf(addr uint64) PageID {
	var p uint64
	if sm.pageShift != 0 {
		p = addr >> sm.pageShift
	} else {
		p = addr / uint64(sm.cfg.PageSize)
	}
	if p >= uint64(sm.numPages) {
		p %= uint64(sm.numPages)
	}
	return PageID(p)
}

// localAddr rebases addr (whose global page is p) into p's shard-local
// address space, preserving the in-page offset so the shard's CPU
// cache model sees distinct lines for distinct global lines.
func (sm *ShardedMachine) localAddr(p PageID, addr uint64) uint64 {
	lp := uint64(p >> sm.log2)
	if sm.pageShift != 0 {
		return lp<<sm.pageShift | addr&(uint64(sm.cfg.PageSize)-1)
	}
	return lp*uint64(sm.cfg.PageSize) + addr%uint64(sm.cfg.PageSize)
}

// PageOf returns the global page containing byte address addr, with
// Machine.PageOf's wraparound semantics.
func (sm *ShardedMachine) PageOf(addr uint64) PageID { return sm.globalPageOf(addr) }

// Access performs one application access under the owning shard's
// lock. Safe for concurrent use.
func (sm *ShardedMachine) Access(addr uint64, write bool) {
	if sm.nshards == 1 {
		sm.mu[0].Lock()
		sm.shards[0].Access(addr, write)
		sm.mu[0].Unlock()
		return
	}
	p := sm.globalPageOf(addr)
	s := int(uint64(p) & sm.mask)
	la := sm.localAddr(p, addr)
	sm.mu[s].Lock()
	sm.shards[s].Access(la, write)
	sm.mu[s].Unlock()
}

// AccessBatch splits a batch into per-shard sub-batches and replays
// each under its shard's lock, preserving per-shard access order (the
// property the determinism argument rests on: shards share no state,
// so any interleaving of whole per-shard streams yields identical
// aggregate counters). Safe for concurrent use; concurrent batches
// interleave at shard granularity.
func (sm *ShardedMachine) AccessBatch(addrs []uint64, writes []bool) {
	sm.accessBatch(NoTenant, addrs, writes)
}

// NoTenant tells the batch replay paths to leave the shard's current
// tenant untouched (single-tenant machines, or pre-set tenancy).
const NoTenant = TenantID(^uint16(0))

// AccessBatchTenant replays a batch on behalf of tenant t: each
// touched shard's current tenant is set to t under the shard lock
// before its sub-batch replays, so concurrent batches from different
// tenants attribute correctly. Safe for concurrent use.
func (sm *ShardedMachine) AccessBatchTenant(t TenantID, addrs []uint64, writes []bool) {
	sm.accessBatch(t, addrs, writes)
}

func (sm *ShardedMachine) accessBatch(t TenantID, addrs []uint64, writes []bool) {
	if sm.nshards == 1 {
		sm.mu[0].Lock()
		if t != NoTenant {
			sm.shards[0].SetCurrentTenant(t)
		}
		for i, a := range addrs {
			sm.shards[0].Access(a, writes[i])
		}
		sm.mu[0].Unlock()
		return
	}
	sc := sm.split(addrs, writes)
	for s := 0; s < sm.nshards; s++ {
		if len(sc.addrs[s]) == 0 {
			continue
		}
		sm.replayShard(s, t, sc.addrs[s], sc.writes[s])
	}
	sm.putSplit(sc)
}

// AccessBatchParallel replays one batch across up to `goroutines`
// goroutines, each owning a fixed subset of shards (goroutine g runs
// shards g, g+G, ...). Whole-shard ownership keeps each shard's
// sub-stream in batch order, so the aggregate counters are identical
// for every G — the lockstep shardscale experiment pins this. Safe
// for concurrent use, though concurrent callers contend shard locks.
func (sm *ShardedMachine) AccessBatchParallel(addrs []uint64, writes []bool, goroutines int) {
	if goroutines < 1 {
		goroutines = 1
	}
	if sm.nshards == 1 || goroutines == 1 {
		sm.accessBatch(NoTenant, addrs, writes)
		return
	}
	if goroutines > sm.nshards {
		goroutines = sm.nshards
	}
	sc := sm.split(addrs, writes)
	var wg sync.WaitGroup
	wg.Add(goroutines)
	for g := 0; g < goroutines; g++ {
		go func(g int) {
			defer wg.Done()
			for s := g; s < sm.nshards; s += goroutines {
				if len(sc.addrs[s]) == 0 {
					continue
				}
				sm.replayShard(s, NoTenant, sc.addrs[s], sc.writes[s])
			}
		}(g)
	}
	wg.Wait()
	sm.putSplit(sc)
}

// split partitions a batch into pooled per-shard sub-batches of
// shard-local addresses.
func (sm *ShardedMachine) split(addrs []uint64, writes []bool) *splitScratch {
	sc := sm.splitPool.Get().(*splitScratch)
	for i, a := range addrs {
		p := sm.globalPageOf(a)
		s := int(uint64(p) & sm.mask)
		sc.addrs[s] = append(sc.addrs[s], sm.localAddr(p, a))
		sc.writes[s] = append(sc.writes[s], writes[i])
	}
	return sc
}

func (sm *ShardedMachine) putSplit(sc *splitScratch) {
	for s := range sc.addrs {
		sc.addrs[s] = sc.addrs[s][:0]
		sc.writes[s] = sc.writes[s][:0]
	}
	sm.splitPool.Put(sc)
}

// replayShard replays one shard's sub-batch under its lock.
func (sm *ShardedMachine) replayShard(s int, t TenantID, addrs []uint64, writes []bool) {
	m := sm.shards[s]
	sm.mu[s].Lock()
	if t != NoTenant {
		m.SetCurrentTenant(t)
	}
	for i, a := range addrs {
		m.Access(a, writes[i])
	}
	sm.mu[s].Unlock()
}

// RunShard runs f on shard s's inner machine under the shard lock —
// the primitive a per-shard control plane builds its sampling and
// migration passes on. f must not call back into
// any ShardedMachine locking method.
func (sm *ShardedMachine) RunShard(s int, f func(m *Machine)) {
	sm.mu[s].Lock()
	defer sm.mu[s].Unlock()
	f(sm.shards[s])
}

// RunShardOf locks the shard owning global page p and runs f with the
// inner machine and p's shard-local ID.
func (sm *ShardedMachine) RunShardOf(p PageID, f func(m *Machine, local PageID)) {
	s := sm.ShardOf(p)
	sm.mu[s].Lock()
	defer sm.mu[s].Unlock()
	f(sm.shards[s], p>>sm.log2)
}

// Quiesce locks every shard (in ascending index order) and runs f on
// the fully stopped machine — the barrier the property tests use to
// assert invariants between epochs while access goroutines run.
func (sm *ShardedMachine) Quiesce(f func()) {
	for s := 0; s < sm.nshards; s++ {
		sm.mu[s].Lock()
	}
	defer func() {
		for s := sm.nshards - 1; s >= 0; s-- {
			sm.mu[s].Unlock()
		}
	}()
	f()
}

// ShardEpoch returns shard s's cross-shard transaction epoch.
func (sm *ShardedMachine) ShardEpoch(s int) uint64 {
	sm.mu[s].Lock()
	defer sm.mu[s].Unlock()
	return sm.epoch[s]
}

// BeginPeriod starts a cross-shard control period: every shard's
// borrow budget is reset to n pages. The migration control plane calls
// this once per decision period, making capacity borrowing a metered,
// per-shard-admission-controlled operation rather than a free-for-all.
func (sm *ShardedMachine) BeginPeriod(n int) {
	for s := 0; s < sm.nshards; s++ {
		sm.mu[s].Lock()
		sm.borrowLeft[s] = n
		sm.mu[s].Unlock()
	}
}

// SetShardBudget is BeginPeriod's per-shard form: it sets shard s's
// remaining borrow budget for the current period. Control planes that
// split a machine-wide budget by demand install the shares with this.
func (sm *ShardedMachine) SetShardBudget(s, n int) {
	sm.mu[s].Lock()
	sm.borrowLeft[s] = n
	sm.mu[s].Unlock()
}

// ShardBudget returns shard s's remaining borrow budget.
func (sm *ShardedMachine) ShardBudget(s int) int {
	sm.mu[s].Lock()
	defer sm.mu[s].Unlock()
	return sm.borrowLeft[s]
}

// lockPair locks two distinct shards in ascending index order (the
// deadlock-freedom rule: every multi-shard lock acquisition in this
// file is ascending, and single-shard holders never take a second).
func (sm *ShardedMachine) lockPair(a, b int) {
	if a > b {
		a, b = b, a
	}
	sm.mu[a].Lock()
	sm.mu[b].Lock()
}

func (sm *ShardedMachine) unlockPair(a, b int) {
	if a > b {
		a, b = b, a
	}
	sm.mu[b].Unlock()
	sm.mu[a].Unlock()
}

// TransferCapacity moves n pages of tier t capacity from shard `from`
// to shard `to` as one epoch-bumping transaction: both shards are
// locked (quiescing them), the donor's capacity is shrunk — refused
// outright if that would strand resident pages — and the recipient's
// grown. The recipient spends n of its borrow budget. Machine-wide
// capacity is conserved exactly.
func (sm *ShardedMachine) TransferCapacity(from, to int, t TierID, n int) error {
	if from == to || n <= 0 {
		return fmt.Errorf("memsim: bad capacity transfer %d→%d n=%d", from, to, n)
	}
	sm.lockPair(from, to)
	defer sm.unlockPair(from, to)
	if sm.borrowLeft[to] < n {
		return ErrBorrowBudget
	}
	if err := sm.shards[from].AdjustCapacity(t, -n); err != nil {
		return err
	}
	if err := sm.shards[to].AdjustCapacity(t, n); err != nil {
		// Roll the donor back; growing it again cannot fail.
		sm.shards[from].AdjustCapacity(t, n)
		return err
	}
	sm.borrowLeft[to] -= n
	sm.epoch[from]++
	sm.epoch[to]++
	return nil
}

// BorrowMovePage migrates global page p to tier dst even when p's own
// shard has no free dst capacity, by borrowing one page of capacity
// from the shard with the most spare dst capacity. The whole move is
// one transaction under both shards' locks: capacity transfers in,
// the page moves, and any failure rolls the capacity back so the
// machine-wide total is conserved on every path. The borrowing shard
// spends one unit of its budget only when the move commits.
func (sm *ShardedMachine) BorrowMovePage(p PageID, dst TierID) error {
	s := sm.ShardOf(p)
	lp := p >> sm.log2
	if sm.nshards == 1 {
		sm.mu[0].Lock()
		defer sm.mu[0].Unlock()
		return sm.shards[0].MovePage(p, dst)
	}

	// Fast path: the home shard has room (or the page is already there).
	sm.mu[s].Lock()
	if sm.shards[s].FreePages(dst) > 0 || sm.shards[s].TierOf(lp) == dst {
		err := sm.shards[s].MovePage(lp, dst)
		sm.mu[s].Unlock()
		return err
	}
	// Donor selection: scan the other shards one lock at a time (never
	// holding two during the scan) for the one with the most spare dst
	// capacity; the choice is advisory and rechecked under the pair lock.
	sm.mu[s].Unlock()
	donor, best := -1, 0
	for d := 0; d < sm.nshards; d++ {
		if d == s {
			continue
		}
		sm.mu[d].Lock()
		free := sm.shards[d].FreePages(dst)
		sm.mu[d].Unlock()
		if free > best {
			donor, best = d, free
		}
	}
	if donor < 0 {
		return ErrNoDonor
	}

	sm.lockPair(s, donor)
	defer sm.unlockPair(s, donor)
	if sm.borrowLeft[s] < 1 {
		return ErrBorrowBudget
	}
	if sm.shards[donor].FreePages(dst) < 1 {
		return ErrNoDonor // donor filled up between the scan and the lock
	}
	if err := sm.shards[donor].AdjustCapacity(dst, -1); err != nil {
		return err
	}
	if err := sm.shards[s].AdjustCapacity(dst, 1); err != nil {
		sm.shards[donor].AdjustCapacity(dst, 1)
		return err
	}
	if err := sm.shards[s].MovePage(lp, dst); err != nil {
		// Rollback: return the borrowed capacity to the donor.
		sm.shards[s].AdjustCapacity(dst, -1)
		sm.shards[donor].AdjustCapacity(dst, 1)
		return err
	}
	sm.borrowLeft[s]--
	sm.epoch[s]++
	sm.epoch[donor]++
	return nil
}

// ---------------------------------------------------------------------
// Control-plane facade: the memsim.Env surface plus the tenant and
// lifecycle extensions, all lock-free per the contract above. With one
// shard every method delegates untranslated.
// ---------------------------------------------------------------------

// Config returns the original (pre-split) configuration.
func (sm *ShardedMachine) Config() Config { return sm.cfg }

// NumPages returns the size of the global page space.
func (sm *ShardedMachine) NumPages() int { return sm.numPages }

// PageSize returns the page size in bytes.
func (sm *ShardedMachine) PageSize() int64 { return sm.cfg.PageSize }

// Now returns the machine's virtual time: the maximum shard clock (the
// makespan view — every shard has reached at least this point when the
// shards run in parallel).
func (sm *ShardedMachine) Now() int64 {
	now := sm.shards[0].Now()
	for _, m := range sm.shards[1:] {
		if t := m.Now(); t > now {
			now = t
		}
	}
	return now
}

// Counters returns the sum of all shard counters.
func (sm *ShardedMachine) Counters() Counters {
	var c Counters
	for _, m := range sm.shards {
		c.add(m.Counters())
	}
	return c
}

// add accumulates o into c field-by-field.
func (c *Counters) add(o Counters) {
	c.FastAccesses += o.FastAccesses
	c.SlowAccesses += o.SlowAccesses
	c.CacheHits += o.CacheHits
	c.Migrations += o.Migrations
	c.Promotions += o.Promotions
	c.Demotions += o.Demotions
	c.MigratedBytes += o.MigratedBytes
	c.Faults += o.Faults
	c.MigrationFailures += o.MigrationFailures
	c.AllocFast += o.AllocFast
	c.AllocSlow += o.AllocSlow
	c.Freed += o.Freed
	c.ShadowDiscards += o.ShadowDiscards
	c.ShadowInvalidates += o.ShadowInvalidates
	c.ShadowReclaims += o.ShadowReclaims
	c.MigrationStallNs += o.MigrationStallNs
}

// BackgroundNs returns the summed background CPU time of all shards.
func (sm *ShardedMachine) BackgroundNs() float64 {
	var ns float64
	for _, m := range sm.shards {
		ns += m.BackgroundNs()
	}
	return ns
}

// AccessLatencyData merges the shards' latency histograms. Every shard
// shares one cost model, so the bucket bounds are identical and the
// cumulative counts sum elementwise.
func (sm *ShardedMachine) AccessLatencyData() telemetry.HistogramData {
	d := sm.shards[0].AccessLatencyData()
	for _, m := range sm.shards[1:] {
		o := m.AccessLatencyData()
		for i := range d.Counts {
			d.Counts[i] += o.Counts[i]
		}
		d.Sum += o.Sum
	}
	return d
}

// TierOf returns the tier of global page p.
func (sm *ShardedMachine) TierOf(p PageID) TierID {
	return sm.shards[sm.ShardOf(p)].TierOf(p >> sm.log2)
}

// Allocated reports whether global page p has been first-touched.
func (sm *ShardedMachine) Allocated(p PageID) bool {
	return sm.shards[sm.ShardOf(p)].Allocated(p >> sm.log2)
}

// UsedPages returns resident pages in tier t across all shards.
func (sm *ShardedMachine) UsedPages(t TierID) int {
	n := 0
	for _, m := range sm.shards {
		n += m.UsedPages(t)
	}
	return n
}

// FreePages returns the remaining tier-t capacity across all shards.
// A policy can see aggregate free space that no single shard has;
// local MovePage then fails with ErrTierFull and the caller escalates
// to BorrowMovePage (or a control-plane rebalance).
func (sm *ShardedMachine) FreePages(t TierID) int {
	n := 0
	for _, m := range sm.shards {
		n += m.FreePages(t)
	}
	return n
}

// CapacityPages returns tier t's total capacity across all shards.
func (sm *ShardedMachine) CapacityPages(t TierID) int {
	n := 0
	for _, m := range sm.shards {
		n += m.CapacityPages(t)
	}
	return n
}

// MovePage migrates global page p within its own shard on the
// background path. It does not borrow capacity: a shard-full result
// surfaces as ErrTierFull even when other shards have room, so the
// single-threaded policy surface stays hook-reentrant (see the
// concurrency contract). BorrowMovePage is the cross-shard escalation.
func (sm *ShardedMachine) MovePage(p PageID, dst TierID) error {
	return sm.shards[sm.ShardOf(p)].MovePage(p>>sm.log2, dst)
}

// MovePageSync migrates global page p within its shard on the
// application's critical path.
func (sm *ShardedMachine) MovePageSync(p PageID, dst TierID) error {
	return sm.shards[sm.ShardOf(p)].MovePageSync(p>>sm.log2, dst)
}

// ChargeBackground adds non-application CPU time to shard 0's
// overhead accounting (BackgroundNs sums shards, so attribution to a
// specific shard is immaterial).
func (sm *ShardedMachine) ChargeBackground(ns float64) {
	sm.shards[0].ChargeBackground(ns)
}

// TestAndClearAccessed reads and clears global page p's accessed bit.
func (sm *ShardedMachine) TestAndClearAccessed(p PageID) bool {
	return sm.shards[sm.ShardOf(p)].TestAndClearAccessed(p >> sm.log2)
}

// Accessed returns global page p's accessed bit without clearing it.
func (sm *ShardedMachine) Accessed(p PageID) bool {
	return sm.shards[sm.ShardOf(p)].Accessed(p >> sm.log2)
}

// Dirty reports whether global page p has been written.
func (sm *ShardedMachine) Dirty(p PageID) bool {
	return sm.shards[sm.ShardOf(p)].Dirty(p >> sm.log2)
}

// PoisonPage arms global page p for a NUMA-hint fault.
func (sm *ShardedMachine) PoisonPage(p PageID) {
	sm.shards[sm.ShardOf(p)].PoisonPage(p >> sm.log2)
}

// PoisonRange arms n pages starting at global page start, wrapping at
// the end of the global space, and returns the page after the last
// armed one — Machine.PoisonRange semantics over the global space.
func (sm *ShardedMachine) PoisonRange(start PageID, n int) PageID {
	p := uint64(start)
	for i := 0; i < n; i++ {
		sm.PoisonPage(PageID(p % uint64(sm.numPages)))
		p++
	}
	return PageID(p % uint64(sm.numPages))
}

// shardSampler forwards a shard's miss stream to a global-page-space
// sampler. The timestamp is the shard's own clock (per-shard clocks
// are the deal sharding strikes; each shard's stream stays monotonic).
type shardSampler struct {
	s     Sampler
	shard PageID
	log2  uint
}

func (w shardSampler) OnMiss(p PageID, t TierID, write bool, now int64) {
	w.s.OnMiss(p<<w.log2|w.shard, t, write, now)
}

// SetSampler installs s on every shard, translating shard-local page
// IDs to global ones (nil removes). A sampler installed this way must
// tolerate calls from multiple goroutines if the data plane is driven
// concurrently; per-shard control planes instead install one sampler
// per shard via Shard(i).
func (sm *ShardedMachine) SetSampler(s Sampler) {
	for i, m := range sm.shards {
		if s == nil {
			m.SetSampler(nil)
		} else if sm.nshards == 1 {
			m.SetSampler(s)
		} else {
			m.SetSampler(shardSampler{s, PageID(i), sm.log2})
		}
	}
}

// shardFaults forwards a shard's NUMA-hint faults with global page IDs.
type shardFaults struct {
	h     FaultHandler
	shard PageID
	log2  uint
}

func (w shardFaults) OnFault(p PageID, t TierID, write bool, now int64) {
	w.h.OnFault(p<<w.log2|w.shard, t, write, now)
}

// SetFaultHandler installs h on every shard with global page IDs (nil
// removes); the same concurrency caveat as SetSampler applies.
func (sm *ShardedMachine) SetFaultHandler(h FaultHandler) {
	for i, m := range sm.shards {
		if h == nil {
			m.SetFaultHandler(nil)
		} else if sm.nshards == 1 {
			m.SetFaultHandler(h)
		} else {
			m.SetFaultHandler(shardFaults{h, PageID(i), sm.log2})
		}
	}
}

// SetAllocHook installs h on every shard with global page IDs (nil
// removes); the same concurrency caveat as SetSampler applies.
func (sm *ShardedMachine) SetAllocHook(h func(PageID, TierID)) {
	for i, m := range sm.shards {
		switch {
		case h == nil:
			m.SetAllocHook(nil)
		case sm.nshards == 1:
			m.SetAllocHook(h)
		default:
			shard := PageID(i)
			m.SetAllocHook(func(p PageID, t TierID) {
				h(p<<sm.log2|shard, t)
			})
		}
	}
}

// SetPageTrace installs a page-lifecycle trace on every shard (nil
// removes). With more than one shard the journaled page IDs are
// shard-local — the trace rings are per-shard diagnostics, not a
// global-address journal; DESIGN.md §12 notes the caveat.
func (sm *ShardedMachine) SetPageTrace(pt *telemetry.PageTrace) {
	for _, m := range sm.shards {
		m.SetPageTrace(pt)
	}
}

// SetFaultInjector installs fi on every shard's migration path (nil
// removes). Injector schedules are keyed by per-shard clocks.
func (sm *ShardedMachine) SetFaultInjector(fi FaultInjector) {
	for _, m := range sm.shards {
		m.SetFaultInjector(fi)
	}
}

// FaultInjector returns the installed injector, or nil.
func (sm *ShardedMachine) FaultInjector() FaultInjector {
	return sm.shards[0].FaultInjector()
}

// EnableTenants enables n-tenant accounting on every shard. Machine's
// contract carries over: call before the first allocation, at most
// once.
func (sm *ShardedMachine) EnableTenants(n int) {
	for _, m := range sm.shards {
		m.EnableTenants(n)
	}
}

// NumTenants returns the tenant-table size (0 when tenancy is off).
func (sm *ShardedMachine) NumTenants() int { return sm.shards[0].NumTenants() }

// SetCurrentTenant sets the accounting tenant on every shard — the
// single-threaded facade path; concurrent batch replay uses
// AccessBatchTenant, which scopes the setting per shard lock.
func (sm *ShardedMachine) SetCurrentTenant(t TenantID) {
	for _, m := range sm.shards {
		m.SetCurrentTenant(t)
	}
}

// SetFastQuota splits tenant t's fast-tier quota across shards the
// same way tier capacity splits (even, remainder to low shards); 0
// clears the quota everywhere. Tenant pages hash across shards like
// everything else, so a proportional split enforces the aggregate
// quota to within the per-shard rounding.
func (sm *ShardedMachine) SetFastQuota(t TenantID, pages int) {
	for s, m := range sm.shards {
		if pages <= 0 {
			m.SetFastQuota(t, 0)
			continue
		}
		q := pages/sm.nshards + extra(pages, sm.nshards, s)
		if q < 1 {
			q = 1 // a zero share would mean "unlimited" on that shard
		}
		m.SetFastQuota(t, q)
	}
}

// TenantUsedPages returns tenant t's resident pages in tier `tier`
// summed across shards.
func (sm *ShardedMachine) TenantUsedPages(t TenantID, tier TierID) int {
	n := 0
	for _, m := range sm.shards {
		n += m.TenantUsedPages(t, tier)
	}
	return n
}

// TenantCounters returns tenant t's counters summed across shards.
func (sm *ShardedMachine) TenantCounters(t TenantID) TenantCounters {
	var c TenantCounters
	for _, m := range sm.shards {
		o := m.TenantCounters(t)
		c.FastAccesses += o.FastAccesses
		c.SlowAccesses += o.SlowAccesses
		c.CacheHits += o.CacheHits
		c.AllocFast += o.AllocFast
		c.AllocSlow += o.AllocSlow
		c.Promotions += o.Promotions
		c.Demotions += o.Demotions
		c.Faults += o.Faults
		c.AppNs += o.AppNs
	}
	return c
}

// OwnerOf returns the tenant owning global page p.
func (sm *ShardedMachine) OwnerOf(p PageID) TenantID {
	return sm.shards[sm.ShardOf(p)].OwnerOf(p >> sm.log2)
}

// FreePage unallocates global page p (Machine.FreePage semantics).
func (sm *ShardedMachine) FreePage(p PageID) error {
	return sm.shards[sm.ShardOf(p)].FreePage(p >> sm.log2)
}

// CheckInvariants verifies every shard's page accounting plus the
// cross-shard conservation law: capacity transfers move capacity
// between shards but the machine-wide per-tier totals must equal the
// constructed totals on every path (commit and rollback alike). Like
// Machine.CheckInvariants it reads without locking — quiesce first
// (Quiesce) when access goroutines are running.
func (sm *ShardedMachine) CheckInvariants() error {
	for s, m := range sm.shards {
		if err := m.CheckInvariants(); err != nil {
			return fmt.Errorf("shard %d: %w", s, err)
		}
	}
	for t := range sm.origCap {
		total := 0
		for _, m := range sm.shards {
			total += m.CapacityPages(TierID(t))
		}
		if total != sm.origCap[t] {
			return fmt.Errorf("memsim: %s capacity not conserved: %d != %d",
				sm.shards[0].TierName(TierID(t)), total, sm.origCap[t])
		}
	}
	return nil
}

// Tiers returns the number of memory tiers.
func (sm *ShardedMachine) Tiers() int { return sm.shards[0].Tiers() }

// NumBoundaries returns the number of adjacent tier pairs.
func (sm *ShardedMachine) NumBoundaries() int { return sm.shards[0].NumBoundaries() }

// TierName returns tier t's label (see Machine.TierName).
func (sm *ShardedMachine) TierName(t TierID) string { return sm.shards[0].TierName(t) }

// TierSpecAt returns tier t's spec with the machine-wide capacity.
func (sm *ShardedMachine) TierSpecAt(t TierID) TierSpec {
	s := sm.shards[0].TierSpecAt(t)
	s.CapacityPages = sm.CapacityPages(t)
	return s
}

// TierAccesses returns cache-missing accesses served by tier t across
// all shards.
func (sm *ShardedMachine) TierAccesses(t TierID) uint64 {
	var n uint64
	for _, m := range sm.shards {
		n += m.TierAccesses(t)
	}
	return n
}

// ShadowPages returns shadow frames held in tier t across all shards.
func (sm *ShardedMachine) ShadowPages(t TierID) int {
	n := 0
	for _, m := range sm.shards {
		n += m.ShadowPages(t)
	}
	return n
}

// ResidentPages returns pages resident in tier t across all shards.
func (sm *ShardedMachine) ResidentPages(t TierID) int {
	n := 0
	for _, m := range sm.shards {
		n += m.ResidentPages(t)
	}
	return n
}

// BoundaryStatsAt returns boundary b's migration counters summed
// across shards.
func (sm *ShardedMachine) BoundaryStatsAt(b int) BoundaryStats {
	var s BoundaryStats
	for _, m := range sm.shards {
		o := m.BoundaryStatsAt(b)
		s.Promotions += o.Promotions
		s.Demotions += o.Demotions
		s.ShadowDiscards += o.ShadowDiscards
	}
	return s
}

var _ Env = (*ShardedMachine)(nil)
