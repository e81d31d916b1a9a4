package core

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"strings"
	"testing"

	"artmem/internal/dist"
	"artmem/internal/rl"
)

func TestQTableSnapshotRoundTrip(t *testing.T) {
	a := New(Config{})
	a.Attach(testMachine(16))
	mig, thr := a.QTables()
	mig.SetQ(2, 3, 1.25)
	thr.SetQ(7, 1, -0.5)

	var buf bytes.Buffer
	if err := a.SaveQTables(&buf); err != nil {
		t.Fatal(err)
	}
	b := New(Config{})
	b.Attach(testMachine(16))
	if err := b.RestoreQTables(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatal(err)
	}
	bm, bt := b.QTables()
	if bm.Q(2, 3) != 1.25 || bt.Q(7, 1) != -0.5 {
		t.Errorf("restored Q = %g/%g", bm.Q(2, 3), bt.Q(7, 1))
	}
	// The optimistic init survives too (it was saved).
	if bm.Q(10, 0) != 1 {
		t.Errorf("Q(k,0) = %g after restore", bm.Q(10, 0))
	}
}

func TestQTableSnapshotErrors(t *testing.T) {
	unattached := New(Config{})
	var buf bytes.Buffer
	if err := unattached.SaveQTables(&buf); err == nil {
		t.Error("save before attach accepted")
	}
	if err := unattached.RestoreQTables(bytes.NewReader(nil)); err == nil {
		t.Error("restore before attach accepted")
	}

	a := New(Config{})
	a.Attach(testMachine(16))
	if err := a.RestoreQTables(bytes.NewReader([]byte("garbage!"))); err == nil {
		t.Error("garbage snapshot accepted")
	}
	// Dimension mismatch: a snapshot of 6-state tables into the agent's
	// 12-state ones.
	small := New(Config{})
	small.Attach(testMachine(16))
	for _, tb := range []**rl.Table{&small.qMig, &small.qThr} {
		cfg := (*tb).Config()
		cfg.States = 6
		*tb = rl.NewTable(cfg, dist.NewRNG(1))
	}
	var sbuf bytes.Buffer
	if err := small.SaveQTables(&sbuf); err != nil {
		t.Fatal(err)
	}
	if err := a.RestoreQTables(bytes.NewReader(sbuf.Bytes())); err == nil {
		t.Error("dimension mismatch accepted")
	}
	// Truncation.
	if err := a.RestoreQTables(bytes.NewReader(sbuf.Bytes()[:10])); err == nil {
		t.Error("truncated snapshot accepted")
	}
}

func TestQTableSnapshotFiles(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "qtables.bin")
	a := New(Config{})
	a.Attach(testMachine(16))
	mig, _ := a.QTables()
	mig.SetQ(1, 1, 9)
	if err := a.SaveQTablesFile(path); err != nil {
		t.Fatal(err)
	}
	b := New(Config{})
	b.Attach(testMachine(16))
	if err := b.RestoreQTablesFile(path); err != nil {
		t.Fatal(err)
	}
	bm, _ := b.QTables()
	if bm.Q(1, 1) != 9 {
		t.Errorf("file round trip lost Q values")
	}
	if err := b.RestoreQTablesFile(filepath.Join(dir, "missing.bin")); err == nil {
		t.Error("missing file accepted")
	}
}

func TestRestoreLeavesLiveTablesUntouchedOnCorruption(t *testing.T) {
	// Build a valid snapshot, then corrupt pieces of it and verify every
	// failed restore leaves the live tables exactly as they were.
	src := New(Config{})
	src.Attach(testMachine(16))
	sm, st := src.QTables()
	sm.SetQ(2, 3, 1.25)
	st.SetQ(7, 1, -0.5)
	var buf bytes.Buffer
	if err := src.SaveQTables(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	newAgent := func() *ArtMem {
		a := New(Config{})
		a.Attach(testMachine(16))
		am, at := a.QTables()
		am.SetQ(5, 5, 42)
		at.SetQ(3, 2, -7)
		return a
	}
	checkUntouched := func(t *testing.T, a *ArtMem) {
		t.Helper()
		am, at := a.QTables()
		if am.Q(5, 5) != 42 || at.Q(3, 2) != -7 {
			t.Errorf("live tables modified by failed restore: %g/%g",
				am.Q(5, 5), at.Q(3, 2))
		}
		if am.Q(2, 3) == 1.25 {
			t.Error("snapshot values leaked into live tables")
		}
	}

	t.Run("truncated-mid-second-table", func(t *testing.T) {
		a := newAgent()
		err := a.RestoreQTables(bytes.NewReader(good[:len(good)-4]))
		if err == nil {
			t.Fatal("truncated snapshot accepted")
		}
		if !strings.Contains(err.Error(), "table 1") {
			t.Errorf("error not descriptive: %v", err)
		}
		checkUntouched(t, a)
	})

	t.Run("corrupt-second-table-magic", func(t *testing.T) {
		a := newAgent()
		// Layout: 4B snapshot magic, then per table: 4B length + body.
		firstLen := binary.LittleEndian.Uint32(good[4:8])
		secondBody := 8 + int(firstLen) + 4 // first byte of table 2's body
		bad := append([]byte(nil), good...)
		bad[secondBody] ^= 0xff
		err := a.RestoreQTables(bytes.NewReader(bad))
		if err == nil {
			t.Fatal("corrupt second table accepted")
		}
		checkUntouched(t, a)
	})

	t.Run("corrupt-first-table-magic", func(t *testing.T) {
		a := newAgent()
		bad := append([]byte(nil), good...)
		bad[8] ^= 0xff
		err := a.RestoreQTables(bytes.NewReader(bad))
		if err == nil {
			t.Fatal("corrupt first table accepted")
		}
		if !strings.Contains(err.Error(), "table 0") {
			t.Errorf("error not descriptive: %v", err)
		}
		checkUntouched(t, a)
	})

	t.Run("implausible-length", func(t *testing.T) {
		a := newAgent()
		bad := append([]byte(nil), good...)
		binary.LittleEndian.PutUint32(bad[4:8], 1<<24)
		err := a.RestoreQTables(bytes.NewReader(bad))
		if err == nil {
			t.Fatal("implausible length accepted")
		}
		checkUntouched(t, a)
	})

	t.Run("good-snapshot-still-restores", func(t *testing.T) {
		a := newAgent()
		if err := a.RestoreQTables(bytes.NewReader(good)); err != nil {
			t.Fatal(err)
		}
		am, at := a.QTables()
		if am.Q(2, 3) != 1.25 || at.Q(7, 1) != -0.5 {
			t.Error("valid restore did not apply")
		}
	})
}
