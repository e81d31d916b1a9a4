package core

import "artmem/internal/rl"

// RL explainability: the paper argues ArtMem's advantage comes from
// *adaptive* migration — the agent learning different quotas and
// thresholds for different access-ratio states (§6.3). The QTableReport
// makes that learning inspectable: both Q-tables with their per-state
// visit counts, exploration draws, greedy actions, and reward
// attribution, anchored to the agent's current operating point. It is
// served as JSON by /qtable and rendered as a heatmap by artmemviz.

// QTableReport is the explainability payload served by /qtable.
type QTableReport struct {
	// Policy is the agent variant name (ArtMem, ArtMem-sarsa, ...).
	Policy string `json:"policy"`
	// K is the access-ratio discretization; states run 0..K plus the
	// dedicated no-sample state at index NoSampleState.
	K             int `json:"k"`
	States        int `json:"states"`
	NoSampleState int `json:"no_sample_state"`
	// CurrentState is τ of the last completed period — the row of the
	// heatmaps the agent is acting from right now.
	CurrentState int `json:"current_state"`
	// Threshold is the current hotness threshold; MinThreshold its
	// floor; Beta the reward target in state units.
	Threshold    uint32  `json:"current_threshold"`
	MinThreshold uint32  `json:"min_threshold"`
	Beta         float64 `json:"beta"`
	// Degraded reports the heuristic fallback; while set, the Q-tables
	// are not steering migration.
	Degraded  bool   `json:"degraded"`
	Decisions uint64 `json:"decisions"`
	// MigrationPages and ThresholdDeltas label the action columns of
	// the two tables.
	MigrationPages  []int `json:"migration_pages"`
	ThresholdDeltas []int `json:"threshold_deltas"`
	// Migration is the migration-number Q-table, Threshold the
	// threshold-delta one.
	Migration      rl.Snapshot `json:"migration"`
	ThresholdTable rl.Snapshot `json:"threshold"`
}

// QTableReport captures the agent's current explainability view. The
// caller must serialize against a running System (the online runtime
// calls it under its lock); the snapshots share no memory with the
// live tables.
func (a *ArtMem) QTableReport() QTableReport {
	return QTableReport{
		Policy:          a.Name(),
		K:               k,
		States:          numStates,
		NoSampleState:   noSampleState,
		CurrentState:    a.state,
		Threshold:       a.threshold,
		MinThreshold:    minThreshold,
		Beta:            a.cfg.Beta,
		Degraded:        a.degraded,
		Decisions:       a.ctDecisions.Value(),
		MigrationPages:  append([]int(nil), migrationPages[:]...),
		ThresholdDeltas: append([]int(nil), thresholdDeltas[:]...),
		Migration:       a.qMig.Snapshot(),
		ThresholdTable:  a.qThr.Snapshot(),
	}
}
