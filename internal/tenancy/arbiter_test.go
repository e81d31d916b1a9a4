package tenancy

import "testing"

// TestArbiterDefaultSingleBoundary pins the admission budget
// arithmetic: a lone batch tenant is admitted exactly its period
// budget of promotions, then denied.
func TestArbiterDefaultSingleBoundary(t *testing.T) {
	a := newArbiter(testMachine(), 1, ArbiterConfig{
		Mode: ModeOff, Admission: true, BandwidthPagesPerPeriod: 3,
	})
	a.addTenant(0, 1, ClassBatch)
	admitted := 0
	for a.admitPromotion(0) == nil {
		admitted++
		if admitted > 10 {
			t.Fatal("budget never exhausted")
		}
	}
	if admitted != 3 {
		t.Errorf("admitted %d promotions, want 3 (the period budget)", admitted)
	}
}
