package trace

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"artmem/internal/workloads"
)

// genWorkload builds a deterministic in-memory workload.
func genWorkload(name string, foot int64, accs []workloads.Access) workloads.Workload {
	i := 0
	return workloads.NewGenerator(name, foot, func() (workloads.Access, bool) {
		if i >= len(accs) {
			return workloads.Access{}, false
		}
		a := accs[i]
		i++
		return a, true
	})
}

func TestRoundTrip(t *testing.T) {
	accs := []workloads.Access{
		{Addr: 0, Write: false},
		{Addr: 4096, Write: true},
		{Addr: 64, Write: false},
		{Addr: 1 << 30, Write: true},
		{Addr: 1<<30 + 64, Write: false},
	}
	var buf bytes.Buffer
	n, err := Record(&buf, genWorkload("demo", 2<<30, accs))
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(len(accs)) {
		t.Fatalf("recorded %d, want %d", n, len(accs))
	}
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if r.Name() != "demo" || r.FootprintBytes() != 2<<30 {
		t.Errorf("header = %q/%d", r.Name(), r.FootprintBytes())
	}
	var got []workloads.Access
	for {
		b, ok := r.Next()
		if !ok {
			break
		}
		got = append(got, b...)
	}
	if r.Err() != nil {
		t.Fatalf("decode error: %v", r.Err())
	}
	if len(got) != len(accs) {
		t.Fatalf("replayed %d accesses, want %d", len(got), len(accs))
	}
	for i := range accs {
		if got[i] != accs[i] {
			t.Errorf("access %d = %+v, want %+v", i, got[i], accs[i])
		}
	}
}

func TestCompactnessOnSequentialTrace(t *testing.T) {
	// Sequential 64B-stride reads must encode around 1-2 bytes/access.
	var accs []workloads.Access
	for i := 0; i < 10000; i++ {
		accs = append(accs, workloads.Access{Addr: uint64(i * 64)})
	}
	var buf bytes.Buffer
	if _, err := Record(&buf, genWorkload("seq", 1<<20, accs)); err != nil {
		t.Fatal(err)
	}
	perAccess := float64(buf.Len()) / 10000
	if perAccess > 2.5 {
		t.Errorf("sequential trace costs %.1f bytes/access, want ≤ 2.5", perAccess)
	}
}

func TestBadMagic(t *testing.T) {
	data := []byte("NOPE-this-is-not-a-trace-file-at-all")
	if _, err := NewReader(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("err = %v, want ErrBadFormat", err)
	}
}

func TestTruncatedHeader(t *testing.T) {
	if _, err := NewReader(bytes.NewReader([]byte("ATRC\x01"))); !errors.Is(err, ErrBadFormat) {
		t.Errorf("err = %v, want ErrBadFormat", err)
	}
}

func TestBadVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHeader(&buf, "x", 100, 0); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[4] = 99 // corrupt version
	if _, err := NewReader(bytes.NewReader(data)); !errors.Is(err, ErrBadFormat) {
		t.Errorf("err = %v, want ErrBadFormat", err)
	}
}

func TestZeroFootprintRejected(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteHeader(&buf, "x", 0, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := NewReader(&buf); !errors.Is(err, ErrBadFormat) {
		t.Errorf("err = %v, want ErrBadFormat", err)
	}
}

func TestDeclaredCountTruncation(t *testing.T) {
	// Header declares 100 records but the body carries 2: the reader
	// must surface a truncation error.
	var buf bytes.Buffer
	if err := WriteHeader(&buf, "x", 1000, 100); err != nil {
		t.Fatal(err)
	}
	w := &Writer{w: newBufio(&buf)}
	w.Append(1, false)
	w.Append(2, true)
	w.Flush()
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	drain(r)
	if r.Err() == nil {
		t.Error("truncated body not reported")
	}
}

func TestReplayThroughHarnessTypes(t *testing.T) {
	// A recorded synthetic pattern replays identically.
	prof := workloads.QuickProfile()
	spec, err := workloads.ByName("S1")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	n, err := Record(&buf, spec.New(prof))
	if err != nil {
		t.Fatal(err)
	}
	data := append([]byte(nil), buf.Bytes()...)
	r, err := NewReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got := drain(r); got != n {
		t.Errorf("replayed %d of %d recorded accesses", got, n)
	}
	if r.Err() != nil {
		t.Error(r.Err())
	}
	// Replay matches a fresh generation access-for-access.
	fresh := spec.New(prof)
	defer fresh.Close()
	r2, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	for {
		fb, fok := fresh.Next()
		rb, rok := r2.Next()
		if fok != rok {
			t.Fatalf("length mismatch: fresh ok=%v replay ok=%v", fok, rok)
		}
		if !fok {
			break
		}
		if len(fb) != len(rb) {
			t.Fatalf("batch sizes differ: %d vs %d", len(fb), len(rb))
		}
		for i := range fb {
			if fb[i] != rb[i] {
				t.Fatalf("access differs at %d: %+v vs %+v", i, fb[i], rb[i])
			}
		}
	}
}

// Property: arbitrary access sequences round-trip exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(addrs []uint64, writes []bool) bool {
		var accs []workloads.Access
		for i, a := range addrs {
			w := i < len(writes) && writes[i]
			accs = append(accs, workloads.Access{Addr: a, Write: w})
		}
		var buf bytes.Buffer
		if _, err := Record(&buf, genWorkload("p", 1, accs)); err != nil {
			return false
		}
		r, err := NewReader(&buf)
		if err != nil {
			return false
		}
		var got []workloads.Access
		for {
			b, ok := r.Next()
			if !ok {
				break
			}
			got = append(got, b...)
		}
		if r.Err() != nil || len(got) != len(accs) {
			return false
		}
		for i := range accs {
			if got[i] != accs[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAppend(b *testing.B) {
	var buf bytes.Buffer
	w, _ := NewWriter(&buf, "b", 1<<30)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w.Append(uint64(i*64), i%8 == 0)
		if buf.Len() > 1<<24 {
			buf.Reset()
		}
	}
}

// drain consumes and discards the whole workload, returning the number
// of accesses.
func drain(w workloads.Workload) int64 {
	var n int64
	for {
		b, ok := w.Next()
		if !ok {
			return n
		}
		n += int64(len(b))
	}
}
