package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"artmem/internal/atomicfile"
	"artmem/internal/rl"
)

// Q-table persistence: the paper's evaluation reuses Q-tables across
// program runs ("ArtMem runs the Liblinear program several times to
// initialize the RL algorithm", §6.2) and transplants them across
// workloads in the robustness study (§6.3.6). These helpers serialize
// both ArtMem tables into one snapshot file.

const snapshotMagic = uint32(0x41724d53) // "ArMS"

// SaveQTables writes both of the agent's Q-tables to w. The agent must
// be attached (tables exist only after Attach).
func (a *ArtMem) SaveQTables(w io.Writer) error {
	if a.qMig == nil {
		return fmt.Errorf("core: agent not attached; no Q-tables to save")
	}
	if err := binary.Write(w, binary.LittleEndian, snapshotMagic); err != nil {
		return err
	}
	for _, tb := range []*rl.Table{a.qMig, a.qThr} {
		data, err := tb.MarshalBinary()
		if err != nil {
			return err
		}
		if err := binary.Write(w, binary.LittleEndian, uint32(len(data))); err != nil {
			return err
		}
		if _, err := w.Write(data); err != nil {
			return err
		}
	}
	return nil
}

// RestoreQTables loads a snapshot written by SaveQTables into the
// attached agent. Table dimensions must match the agent's configuration.
// The restore is transactional: both tables are decoded and validated
// into staging copies first, and the live tables are only overwritten
// once the entire snapshot has parsed — a truncated or corrupted
// snapshot returns a descriptive error and leaves the agent's learning
// state untouched.
func (a *ArtMem) RestoreQTables(r io.Reader) error {
	if a.qMig == nil {
		return fmt.Errorf("core: agent not attached; nowhere to restore")
	}
	var magic uint32
	if err := binary.Read(r, binary.LittleEndian, &magic); err != nil {
		return fmt.Errorf("core: snapshot header: %w", err)
	}
	if magic != snapshotMagic {
		return fmt.Errorf("core: bad snapshot magic %#x", magic)
	}
	live := []*rl.Table{a.qMig, a.qThr}
	staged := make([]*rl.Table, len(live))
	for i, tb := range live {
		var n uint32
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			return fmt.Errorf("core: snapshot table %d length: %w", i, err)
		}
		if n > 1<<20 {
			return fmt.Errorf("core: implausible table %d size %d", i, n)
		}
		data := make([]byte, n)
		if _, err := io.ReadFull(r, data); err != nil {
			return fmt.Errorf("core: snapshot table %d body: %w", i, err)
		}
		tmp := tb.Clone()
		if err := tmp.UnmarshalBinary(data); err != nil {
			return fmt.Errorf("core: snapshot table %d: %w", i, err)
		}
		staged[i] = tmp
	}
	// Commit: every table parsed and matched dimensions.
	for i, tb := range live {
		if err := tb.CopyQFrom(staged[i]); err != nil {
			return err // unreachable: staged tables share live dimensions
		}
	}
	return nil
}

// SaveQTablesFile writes the snapshot to path. The file is replaced
// whole (atomicfile), so a reader or a crash never sees a torn
// checkpoint.
func (a *ArtMem) SaveQTablesFile(path string) error {
	var buf bytes.Buffer
	if err := a.SaveQTables(&buf); err != nil {
		return err
	}
	return atomicfile.WriteFile(path, buf.Bytes(), 0o644)
}

// RestoreQTablesFile loads a snapshot from path.
func (a *ArtMem) RestoreQTablesFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return a.RestoreQTables(bytes.NewReader(data))
}
