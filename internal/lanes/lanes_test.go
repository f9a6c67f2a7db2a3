package lanes

import "testing"

// TestSetFollowsHost: the SIMD bodies can be selected only where the host
// has them, the portable ones anywhere, and Vector reports the selection.
func TestSetFollowsHost(t *testing.T) {
	defer Set(Vector())
	if got := Set(true); got != HasAVX512() || Vector() != got {
		t.Errorf("Set(true) = %v, Vector() = %v on a host with HasAVX512() = %v", got, Vector(), HasAVX512())
	}
	if Set(false) || Vector() {
		t.Error("Set(false) left the SIMD bodies selected")
	}
}
