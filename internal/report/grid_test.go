package report

import (
	"testing"
	"time"

	"impress/internal/core"
)

func TestDurLabel(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{0, "0"},
		{10 * time.Minute, "10m"},
		{15 * time.Minute, "15m"},
		{30 * time.Minute, "30m"},
		{time.Hour, "1h"},
		{90 * time.Minute, "1h30m"},
		{2 * time.Hour, "2h"},
		{45 * time.Second, "45s"},
	} {
		if got := DurLabel(tc.d); got != tc.want {
			t.Errorf("DurLabel(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
	// The preemption grid's checkpoint column shows "off" for zero and
	// the same labels otherwise.
	for d, want := range map[time.Duration]string{0: "off", 30 * time.Minute: "30m", 90 * time.Minute: "1h30m"} {
		if got := ckptKey.Of(&core.Result{CheckpointInterval: d}); got != want {
			t.Errorf("checkpoint column for %v = %q, want %q", d, got, want)
		}
	}
}
