// Package rl implements the tabular, model-free reinforcement learning
// machinery used by ArtMem: Q-tables with ε-greedy action selection and
// both Q-learning and SARSA update rules (the paper compares the two in
// §6.3.5 and finds them equivalent for this problem).
//
// The state and action spaces are deliberately tiny — ArtMem discretizes
// the fast-tier access ratio into k+2 states and uses single-digit action
// sets — so a Q-table costs well under 10KB (paper §6.4) and an update is
// a handful of floating-point operations.
package rl

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"

	"artmem/internal/dist"
)

// Algorithm selects the temporal-difference update rule.
type Algorithm uint8

const (
	// QLearning is the off-policy rule: the target bootstraps from the
	// greedy (max) action value in the next state.
	QLearning Algorithm = iota
	// SARSA is the on-policy rule: the target bootstraps from the action
	// actually chosen in the next state.
	SARSA
	// ExpectedSARSA bootstraps from the ε-greedy *expectation* over the
	// next state's actions — lower-variance than SARSA, on-policy unlike
	// Q-learning. An extension beyond the paper's two algorithms.
	ExpectedSARSA
)

// String returns the algorithm name.
func (a Algorithm) String() string {
	switch a {
	case SARSA:
		return "sarsa"
	case ExpectedSARSA:
		return "expected-sarsa"
	}
	return "q-learning"
}

// Config parameterizes a Table. The defaults (see DefaultConfig) are the
// paper's tuned hyperparameters from the sensitivity study (§6.3.7).
type Config struct {
	States  int
	Actions int
	// Alpha is the learning rate: how much new experience moves Q values.
	Alpha float64
	// Gamma is the discount factor weighting long-term returns.
	Gamma float64
	// Epsilon is the exploration probability for ε-greedy selection.
	Epsilon float64
	// Algorithm selects Q-learning (default) or SARSA.
	Algorithm Algorithm
}

// The paper's tuned hyperparameters: α = e⁻², γ = e⁻¹, ε = 0.3 (§6.3.7).
var (
	DefaultAlpha   = math.Exp(-2)
	DefaultGamma   = math.Exp(-1)
	DefaultEpsilon = 0.3
)

// Table is one Q-table with its learning configuration. It is not safe
// for concurrent use.
type Table struct {
	cfg      Config
	q        []float64 // row-major [state][action]
	rng      *dist.RNG
	updates  uint64
	explores uint64

	// Explainability accounting (see Snapshot): how often each state
	// was visited by Choose, how many of those visits took the
	// ε-exploration branch, and the reward mass attributed to updates
	// from each state.
	visits        []uint64
	stateExplores []uint64
	rewardSum     []float64
	rewardCount   []uint64
}

// NewTable returns a zero-initialized Q-table. It panics on non-positive
// dimensions or parameters outside their valid ranges (tables are built
// from code, not user input).
func NewTable(cfg Config, rng *dist.RNG) *Table {
	if cfg.States <= 0 || cfg.Actions <= 0 {
		panic(fmt.Sprintf("rl: invalid table dimensions %dx%d", cfg.States, cfg.Actions))
	}
	if cfg.Alpha <= 0 || cfg.Alpha > 1 {
		panic(fmt.Sprintf("rl: alpha %g outside (0,1]", cfg.Alpha))
	}
	if cfg.Gamma < 0 || cfg.Gamma >= 1 {
		panic(fmt.Sprintf("rl: gamma %g outside [0,1)", cfg.Gamma))
	}
	if cfg.Epsilon < 0 || cfg.Epsilon > 1 {
		panic(fmt.Sprintf("rl: epsilon %g outside [0,1]", cfg.Epsilon))
	}
	if rng == nil {
		rng = dist.NewRNG(0)
	}
	return &Table{
		cfg:           cfg,
		q:             make([]float64, cfg.States*cfg.Actions),
		rng:           rng,
		visits:        make([]uint64, cfg.States),
		stateExplores: make([]uint64, cfg.States),
		rewardSum:     make([]float64, cfg.States),
		rewardCount:   make([]uint64, cfg.States),
	}
}

// Config returns the table's configuration.
func (t *Table) Config() Config { return t.cfg }

// Updates returns the number of TD updates applied.
func (t *Table) Updates() uint64 { return t.updates }

// Explorations returns the number of Choose calls that took the
// ε-branch (a uniformly random action instead of the greedy one). The
// telemetry layer exposes it so exploration behaviour is observable
// alongside the Q-update counts.
func (t *Table) Explorations() uint64 { return t.explores }

// Q returns the action value for (state, action).
func (t *Table) Q(state, action int) float64 {
	return t.q[state*t.cfg.Actions+action]
}

// SetQ overwrites the action value for (state, action). ArtMem uses this
// for its optimistic initialization Q(k, 0) = 1 (Algorithm 1 line 1).
func (t *Table) SetQ(state, action int, v float64) {
	t.q[state*t.cfg.Actions+action] = v
}

// Best returns the greedy action for state and its value. Ties are
// broken uniformly at random (seeded, hence reproducible).
func (t *Table) Best(state int) (action int, value float64) {
	row := t.q[state*t.cfg.Actions : (state+1)*t.cfg.Actions]
	action, value = 0, row[0]
	ties := 1
	for a := 1; a < len(row); a++ {
		switch {
		case row[a] > value:
			action, value = a, row[a]
			ties = 1
		case row[a] == value:
			ties++
			if t.rng.Intn(ties) == 0 {
				action = a
			}
		}
	}
	return action, value
}

// MaxQ returns the maximum action value in state.
func (t *Table) MaxQ(state int) float64 {
	row := t.q[state*t.cfg.Actions : (state+1)*t.cfg.Actions]
	m := row[0]
	for _, v := range row[1:] {
		if v > m {
			m = v
		}
	}
	return m
}

// Choose performs ε-greedy selection: with probability ε a uniformly
// random action (exploration), otherwise the greedy action.
func (t *Table) Choose(state int) int {
	t.visits[state]++
	if t.cfg.Epsilon > 0 && t.rng.Float64() < t.cfg.Epsilon {
		t.explores++
		t.stateExplores[state]++
		return t.rng.Intn(t.cfg.Actions)
	}
	a, _ := t.Best(state)
	return a
}

// Update applies one temporal-difference update for the transition
// (state, action, reward, nextState). nextAction is the action selected
// in nextState and is only consulted by SARSA; Q-learning ignores it.
//
//	Q(s,a) ← Q(s,a) + α [ r + γ·target − Q(s,a) ]
func (t *Table) Update(state, action int, reward float64, nextState, nextAction int) {
	var target float64
	switch t.cfg.Algorithm {
	case SARSA:
		target = t.Q(nextState, nextAction)
	case ExpectedSARSA:
		target = t.expectedQ(nextState)
	default:
		target = t.MaxQ(nextState)
	}
	i := state*t.cfg.Actions + action
	t.q[i] += t.cfg.Alpha * (reward + t.cfg.Gamma*target - t.q[i])
	t.updates++
	t.rewardSum[state] += reward
	t.rewardCount[state]++
}

// expectedQ returns the ε-greedy expectation of the next state's value:
// (1−ε)·maxQ + ε·meanQ.
func (t *Table) expectedQ(state int) float64 {
	row := t.q[state*t.cfg.Actions : (state+1)*t.cfg.Actions]
	maxV, sum := row[0], 0.0
	for _, v := range row {
		if v > maxV {
			maxV = v
		}
		sum += v
	}
	mean := sum / float64(len(row))
	return (1-t.cfg.Epsilon)*maxV + t.cfg.Epsilon*mean
}

// Clone returns a deep copy of the table sharing no state with t, with a
// freshly split RNG. Used by the robustness study (§6.3.6): a Q-table
// trained on one workload is cloned and reused to run another.
func (t *Table) Clone() *Table {
	return &Table{
		cfg:           t.cfg,
		q:             append([]float64(nil), t.q...),
		rng:           t.rng.Split(),
		visits:        append([]uint64(nil), t.visits...),
		stateExplores: append([]uint64(nil), t.stateExplores...),
		rewardSum:     append([]float64(nil), t.rewardSum...),
		rewardCount:   append([]uint64(nil), t.rewardCount...),
	}
}

// CopyQFrom copies the Q values of src into t. Dimensions must match.
func (t *Table) CopyQFrom(src *Table) error {
	if src.cfg.States != t.cfg.States || src.cfg.Actions != t.cfg.Actions {
		return fmt.Errorf("rl: dimension mismatch %dx%d vs %dx%d",
			src.cfg.States, src.cfg.Actions, t.cfg.States, t.cfg.Actions)
	}
	copy(t.q, src.q)
	return nil
}

// MemoryBytes returns the table's Q-value storage footprint. The paper
// reports the two ArtMem Q-tables occupy under 10KB total (§6.4).
func (t *Table) MemoryBytes() int { return len(t.q) * 8 }

// GreedyAction returns the argmax action for state without consuming
// randomness: ties break toward the lowest action index, so repeated
// calls are stable. This is the explainability view of the policy —
// "what would the agent do here if it did not explore".
func (t *Table) GreedyAction(state int) int {
	row := t.q[state*t.cfg.Actions : (state+1)*t.cfg.Actions]
	best := 0
	for a := 1; a < len(row); a++ {
		if row[a] > row[best] {
			best = a
		}
	}
	return best
}

// Snapshot is a point-in-time, JSON-marshalable view of one Q-table
// and its learning history — the payload behind the /qtable endpoint
// and the artmemviz heatmap.
type Snapshot struct {
	States    int     `json:"states"`
	Actions   int     `json:"actions"`
	Algorithm string  `json:"algorithm"`
	Alpha     float64 `json:"alpha"`
	Gamma     float64 `json:"gamma"`
	Epsilon   float64 `json:"epsilon"`
	Updates   uint64  `json:"updates"`
	// Q is the full value matrix, row per state.
	Q [][]float64 `json:"q"`
	// Visits counts Choose calls per state; Explorations the subset
	// that took the ε-branch (greedy draws = Visits − Explorations).
	Visits       []uint64 `json:"visits"`
	Explorations []uint64 `json:"explorations"`
	// Greedy is the current argmax action per state (stable ties).
	Greedy []int `json:"greedy"`
	// MeanReward attributes reward to the state it was received in:
	// the mean TD reward over updates from that state (0 if never
	// updated); RewardCount is the per-state update count.
	MeanReward  []float64 `json:"mean_reward"`
	RewardCount []uint64  `json:"reward_count"`
}

// Snapshot captures the table's current Q values, per-state visit and
// exploration counts, greedy actions, and reward attribution. The
// result shares no memory with the table.
func (t *Table) Snapshot() Snapshot {
	s := Snapshot{
		States:       t.cfg.States,
		Actions:      t.cfg.Actions,
		Algorithm:    t.cfg.Algorithm.String(),
		Alpha:        t.cfg.Alpha,
		Gamma:        t.cfg.Gamma,
		Epsilon:      t.cfg.Epsilon,
		Updates:      t.updates,
		Q:            make([][]float64, t.cfg.States),
		Visits:       append([]uint64(nil), t.visits...),
		Explorations: append([]uint64(nil), t.stateExplores...),
		Greedy:       make([]int, t.cfg.States),
		MeanReward:   make([]float64, t.cfg.States),
		RewardCount:  append([]uint64(nil), t.rewardCount...),
	}
	for st := 0; st < t.cfg.States; st++ {
		s.Q[st] = append([]float64(nil), t.q[st*t.cfg.Actions:(st+1)*t.cfg.Actions]...)
		s.Greedy[st] = t.GreedyAction(st)
		if n := t.rewardCount[st]; n > 0 {
			s.MeanReward[st] = t.rewardSum[st] / float64(n)
		}
	}
	return s
}

const marshalMagic = uint32(0x41724d51) // "ArMQ"

// MarshalBinary serializes the table dimensions and Q values (not the
// RNG position or hyperparameters).
func (t *Table) MarshalBinary() ([]byte, error) {
	var buf bytes.Buffer
	for _, v := range []uint32{marshalMagic, uint32(t.cfg.States), uint32(t.cfg.Actions)} {
		if err := binary.Write(&buf, binary.LittleEndian, v); err != nil {
			return nil, err
		}
	}
	if err := binary.Write(&buf, binary.LittleEndian, t.q); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary restores Q values serialized by MarshalBinary into a
// table with matching dimensions.
func (t *Table) UnmarshalBinary(data []byte) error {
	buf := bytes.NewReader(data)
	var magic, states, actions uint32
	for _, p := range []*uint32{&magic, &states, &actions} {
		if err := binary.Read(buf, binary.LittleEndian, p); err != nil {
			return err
		}
	}
	if magic != marshalMagic {
		return fmt.Errorf("rl: bad magic %#x", magic)
	}
	if int(states) != t.cfg.States || int(actions) != t.cfg.Actions {
		return fmt.Errorf("rl: serialized dimensions %dx%d do not match table %dx%d",
			states, actions, t.cfg.States, t.cfg.Actions)
	}
	return binary.Read(buf, binary.LittleEndian, t.q)
}
