package sched

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync/atomic"
	"testing"

	"artmem/internal/faultinject"
	"artmem/internal/harness"
	"artmem/internal/telemetry"
	"artmem/internal/workloads"
)

// fakeCell returns a cell whose result encodes i, counting executions.
func fakeCell(i int, runs *atomic.Int64) Cell {
	return Cell{
		Key: fmt.Sprintf("cell-%d", i),
		Run: func() harness.Result {
			runs.Add(1)
			return harness.Result{Workload: fmt.Sprintf("w%d", i), ExecNs: int64(i)}
		},
	}
}

func TestRunGridWritesResultsByIndex(t *testing.T) {
	for _, workers := range []int{1, 4, 16} {
		var runs atomic.Int64
		cells := make([]Cell, 50)
		for i := range cells {
			cells[i] = fakeCell(i, &runs)
		}
		s := New(Config{Workers: workers})
		res := s.RunGrid(cells)
		if len(res) != len(cells) {
			t.Fatalf("workers=%d: %d results, want %d", workers, len(res), len(cells))
		}
		for i, r := range res {
			if r.ExecNs != int64(i) {
				t.Errorf("workers=%d: results[%d].ExecNs = %d, want %d", workers, i, r.ExecNs, i)
			}
		}
		if runs.Load() != int64(len(cells)) {
			t.Errorf("workers=%d: %d executions, want %d (no cache configured)", workers, runs.Load(), len(cells))
		}
	}
}

func TestSchedulerDefaultsWorkersToGOMAXPROCS(t *testing.T) {
	if w := New(Config{}).workers; w < 1 {
		t.Fatalf("default workers = %d", w)
	}
	if w := New(Config{Workers: 3}).workers; w != 3 {
		t.Fatalf("explicit workers = %d, want 3", w)
	}
}

func TestCacheHitReturnsIdenticalResult(t *testing.T) {
	c := NewCache("")
	var runs atomic.Int64
	run := func() harness.Result {
		runs.Add(1)
		return harness.Result{Workload: "w", ExecNs: 42, DRAMRatio: 0.75}
	}
	r1, hit1 := c.GetOrRun("k", run)
	r2, hit2 := c.GetOrRun("k", run)
	if hit1 || !hit2 {
		t.Fatalf("hit flags = %v, %v; want false, true", hit1, hit2)
	}
	if runs.Load() != 1 {
		t.Fatalf("run executed %d times, want 1", runs.Load())
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("cached result differs: %+v vs %+v", r1, r2)
	}
	st := c.Stats()
	if st.MemHits != 1 || st.Misses != 1 || st.DiskHits != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if got := st.HitRate(); got != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", got)
	}
}

func TestCacheCoalescesConcurrentRequests(t *testing.T) {
	c := NewCache("")
	var runs atomic.Int64
	gate := make(chan struct{})
	run := func() harness.Result {
		<-gate
		runs.Add(1)
		return harness.Result{ExecNs: 7}
	}
	results := make(chan harness.Result, 8)
	for i := 0; i < 8; i++ {
		go func() {
			r, _ := c.GetOrRun("same", run)
			results <- r
		}()
	}
	close(gate)
	for i := 0; i < 8; i++ {
		if r := <-results; r.ExecNs != 7 {
			t.Fatalf("result %d = %+v", i, r)
		}
	}
	if runs.Load() != 1 {
		t.Fatalf("run executed %d times for one key, want 1", runs.Load())
	}
}

func TestDiskCachePersistsAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	var runs atomic.Int64
	run := func() harness.Result {
		runs.Add(1)
		return harness.Result{Workload: "CC", Policy: "ArtMem",
			Ratio: harness.Ratio{Fast: 1, Slow: 4}, ExecNs: 1234,
			Migrations: 9, DRAMRatio: 0.5}
	}
	c1 := NewCache(dir)
	want, _ := c1.GetOrRun("k", run)

	c2 := NewCache(dir) // fresh instance, same directory
	got, hit := c2.GetOrRun("k", run)
	if !hit {
		t.Fatal("second instance missed the persisted entry")
	}
	if runs.Load() != 1 {
		t.Fatalf("run executed %d times, want 1", runs.Load())
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("persisted result differs:\nwant %+v\ngot  %+v", want, got)
	}
	if st := c2.Stats(); st.DiskHits != 1 {
		t.Fatalf("stats = %+v, want one disk hit", st)
	}
}

func TestDiskCacheRejectsCorruptAndMismatchedEntries(t *testing.T) {
	dir := t.TempDir()
	c := NewCache(dir)
	c.GetOrRun("k", func() harness.Result { return harness.Result{ExecNs: 1} })

	// Corrupt the file: a fresh instance must recompute, not fail.
	path := c.path(hashKey("k"))
	if err := os.WriteFile(path, []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}
	var runs atomic.Int64
	c2 := NewCache(dir)
	r, hit := c2.GetOrRun("k", func() harness.Result { runs.Add(1); return harness.Result{ExecNs: 2} })
	if hit || runs.Load() != 1 || r.ExecNs != 2 {
		t.Fatalf("corrupt entry not recomputed: hit=%v runs=%d res=%+v", hit, runs.Load(), r)
	}

	// A stored key that does not match the request (hash collision
	// stand-in) must also degrade to a recompute.
	other := NewCache(dir)
	if err := os.Rename(other.path(hashKey("k")), other.path(hashKey("different"))); err != nil {
		t.Fatal(err)
	}
	_, hit = other.GetOrRun("different", func() harness.Result { return harness.Result{ExecNs: 3} })
	if hit {
		t.Fatal("key-mismatched entry served as a hit")
	}
}

func TestKeyChangesOnEveryConfigField(t *testing.T) {
	prof := workloads.QuickProfile()
	base := Key("CC", prof, "ArtMem", harness.Config{}, "")
	cfgType := reflect.TypeOf(harness.Config{})
	for i := 0; i < cfgType.NumField(); i++ {
		cfg := harness.Config{}
		poke(reflect.ValueOf(&cfg).Elem().Field(i))
		if got := Key("CC", prof, "ArtMem", cfg, ""); got == base {
			t.Errorf("mutating Config.%s did not change the key", cfgType.Field(i).Name)
		}
	}
	// The non-config identity components must matter too.
	if Key("SSSP", prof, "ArtMem", harness.Config{}, "") == base {
		t.Error("workload name not in key")
	}
	if Key("CC", workloads.DefaultProfile(), "ArtMem", harness.Config{}, "") == base {
		t.Error("profile not in key")
	}
	if Key("CC", prof, "TPP", harness.Config{}, "") == base {
		t.Error("policy identity not in key")
	}
	if Key("CC", prof, "ArtMem", harness.Config{}, "fixedFast=1") == base {
		t.Error("extra component not in key")
	}
}

// poke sets a field to a non-zero value, whatever its type.
func poke(v reflect.Value) {
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(7)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(7)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(7.5)
	case reflect.String:
		v.SetString("x")
	case reflect.Pointer:
		p := reflect.New(v.Type().Elem())
		if p.Elem().Kind() == reflect.Struct && p.Elem().NumField() > 0 {
			poke(p.Elem().Field(0))
		}
		v.Set(p)
	case reflect.Struct:
		if v.NumField() > 0 {
			poke(v.Field(0))
		}
	case reflect.Slice:
		e := reflect.New(v.Type().Elem()).Elem()
		poke(e)
		v.Set(reflect.Append(v, e))
	default:
		panic(fmt.Sprintf("poke: unhandled kind %s", v.Kind()))
	}
}

func TestKeyFlattensFaultConfig(t *testing.T) {
	prof := workloads.QuickProfile()
	fc := faultinject.Config{Seed: 3, MigrationFailProb: 0.5}
	a := Key("CC", prof, "p", harness.Config{Faults: &fc}, "")
	fc2 := fc // distinct pointer, equal value
	b := Key("CC", prof, "p", harness.Config{Faults: &fc2}, "")
	if a != b {
		t.Error("equal fault configs behind distinct pointers produced different keys")
	}
	fc2.MigrationFailProb = 0.9
	if c := Key("CC", prof, "p", harness.Config{Faults: &fc2}, ""); c == a {
		t.Error("fault config contents not in key")
	}
}

func TestSourceStamp(t *testing.T) {
	dir := t.TempDir()
	write := func(name, content string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("a.go", "package a\n")
	write("a_test.go", "package a\n")
	s1, err := SourceStamp(dir)
	if err != nil {
		t.Fatal(err)
	}
	// Test files are excluded: changing one keeps the stamp.
	write("a_test.go", "package a // changed\n")
	s2, err := SourceStamp(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s1 != s2 {
		t.Error("stamp changed on a _test.go edit")
	}
	// Source files are included: any edit cold-starts the cache.
	write("a.go", "package a // changed\n")
	s3, err := SourceStamp(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s3 == s1 {
		t.Error("stamp unchanged after a source edit")
	}
	if _, err := SourceStamp(filepath.Join(dir, "missing")); err == nil {
		t.Error("missing root accepted")
	}
}

func TestMetricsAndProgress(t *testing.T) {
	reg := telemetry.NewRegistry()
	m := NewMetrics(reg)
	c := NewCache("")
	s := New(Config{Workers: 2, Cache: c, Metrics: m})
	cells := []Cell{
		{Key: "a", Run: func() harness.Result { return harness.Result{ExecNs: 1} }},
		{Key: "a", Run: func() harness.Result { return harness.Result{ExecNs: 1} }},
		{Key: "b", Run: func() harness.Result { return harness.Result{ExecNs: 2} }},
	}
	s.RunGrid(cells)
	done, total := s.cellsDone.Load(), s.cellsTotal.Load()
	if done != 3 || total != 3 {
		t.Fatalf("progress = %d/%d, want 3/3", done, total)
	}
	if got := m.CellsDone.Value(); got != 3 {
		t.Errorf("cells done metric = %d", got)
	}
	if got := m.Misses.Value(); got != 2 {
		t.Errorf("miss metric = %d, want 2 (keys a, b)", got)
	}
	if got := m.MemHits.Value(); got != 1 {
		t.Errorf("mem hit metric = %d, want 1 (repeated key a)", got)
	}
}

// TestNilMetricsSafe ensures an unwired scheduler/cache never panics.
func TestNilMetricsSafe(t *testing.T) {
	s := New(Config{Workers: 1, Cache: NewCache("")})
	s.RunGrid([]Cell{{Key: "k", Run: func() harness.Result { return harness.Result{} }}})
}
