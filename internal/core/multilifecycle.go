package core

import (
	"fmt"

	"artmem/internal/rl"
	"artmem/internal/telemetry"
	"artmem/internal/tenancy"
)

// agentCheckpoint is a gracefully departed tenant's learned policy: deep
// copies of its two Q-tables, keyed by tenant name in
// MultiSystem.checkpoints. A tenant re-registering under the same name
// warm-starts from its checkpoint (the paper's §6.3.6 transfer setting:
// a trained table reused on a new run) instead of relearning from the
// uniform prior.
type agentCheckpoint struct {
	mig *rl.Table
	thr *rl.Table
}

// registerLocked admits one tenant: plane slot, fresh agent with a
// private telemetry set, warm-started from a same-name checkpoint.
// Caller holds s.mu (or is inside NewMultiSystem, before the threads
// exist).
func (s *MultiSystem) registerLocked(t TenantConfig) (int, error) {
	slot, err := s.plane.Register(tenancy.Tenant{Name: t.Name, Weight: t.Weight, Class: t.Class})
	if err != nil {
		return -1, err
	}
	agent := New(t.Policy)
	if ck, ok := s.checkpoints[s.plane.Tenant(slot).Name]; ok {
		// Every agent has the same table geometry, so a checkpoint
		// always fits; explicitly pretrained tables take precedence.
		if agent.cfg.PretrainedMig == nil && ck.mig != nil {
			agent.cfg.PretrainedMig = ck.mig
		}
		if agent.cfg.PretrainedThr == nil && ck.thr != nil {
			agent.cfg.PretrainedThr = ck.thr
		}
	}
	agent.SetTelemetry(&telemetry.Set{
		Registry: telemetry.NewRegistry(),
		Trace:    telemetry.NewTrace(0),
	})
	agent.AttachEnv(s.plane.View(slot))
	s.agents[slot] = agent
	s.policies[slot] = t.Policy
	return slot, nil
}

// RegisterTenant admits a tenant at runtime, returning its slot id. The
// plane's admission control applies: a full plane fails with
// tenancy.ErrPlaneFull and a spent per-period arrival budget with
// tenancy.ErrRegistrationThrottled (retry next period). Safe to call
// concurrently with a started MultiSystem.
func (s *MultiSystem) RegisterTenant(t TenantConfig) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.registerLocked(t)
}

// DeregisterTenant retires the tenant in `slot` gracefully: its learned
// Q-tables are checkpointed under its name (a later same-name
// registration warm-starts from them), its agent is detached, and its
// pages are reclaimed in one transaction — freed when handoffTo < 0,
// recharged to the tenant in slot handoffTo otherwise. An interrupted
// reclamation returns tenancy.ErrReclaimInterrupted with the slot left
// draining (agent already detached); the migration thread retries each
// period, or call DeregisterTenant again.
func (s *MultiSystem) DeregisterTenant(slot, handoffTo int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deregisterLocked(slot, handoffTo, false)
}

// CrashTenant force-deregisters the tenant in `slot`, as a kill signal
// would: no checkpoint is taken (the in-memory policy state dies with
// the tenant), but the reclamation transaction is the same — pages are
// drained or handed off with rollback on fault.
func (s *MultiSystem) CrashTenant(slot, handoffTo int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.deregisterLocked(slot, handoffTo, true)
}

func (s *MultiSystem) deregisterLocked(slot, handoffTo int, crash bool) error {
	if slot < 0 || slot >= len(s.agents) {
		return fmt.Errorf("core: no tenant slot %d", slot)
	}
	if a := s.agents[slot]; a != nil {
		if !crash && a.qMig != nil {
			s.checkpoints[s.plane.Tenant(slot).Name] = agentCheckpoint{
				mig: a.qMig.Clone(),
				thr: a.qThr.Clone(),
			}
		}
		s.agents[slot] = nil
		s.policies[slot] = Config{}
	}
	if crash {
		return s.plane.Crash(slot, handoffTo)
	}
	return s.plane.Deregister(slot, handoffTo)
}
