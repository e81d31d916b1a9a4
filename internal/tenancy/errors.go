package tenancy

import "errors"

// ErrorCode classifies a control-plane error into a short stable slug
// for wire protocols and JSON error payloads — the serving frontend
// maps these onto its reject codes and artmemd's /register handler
// includes them in `{"error": ..., "code": ...}` responses, so remote
// clients can distinguish "retry next period" backpressure from hard
// failures without string-matching error text.
//
//	ErrRegistrationThrottled → "throttled"   (retryable backpressure)
//	ErrReclaimInterrupted    → "reclaim_interrupted" (retryable)
//	ErrPlaneFull             → "plane_full"  (capacity; retry later)
//	ErrAdmissionDenied       → "admission_denied" (per-period budget)
//	anything else            → "error"
func ErrorCode(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrRegistrationThrottled):
		return "throttled"
	case errors.Is(err, ErrReclaimInterrupted):
		return "reclaim_interrupted"
	case errors.Is(err, ErrPlaneFull):
		return "plane_full"
	case errors.Is(err, ErrAdmissionDenied):
		return "admission_denied"
	}
	return "error"
}
