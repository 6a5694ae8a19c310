package obs

import (
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// TestFlightRecorderEpochFilenames pins the dump naming contract: epochal
// traces dump as flight-e<epoch>-NNN-<label>.trace.json so multi-epoch
// soak dumps stay attributable, while classic rounds keep the original
// flight-NNN-<label> shape.
func TestFlightRecorderEpochFilenames(t *testing.T) {
	fr := NewFlightRecorder(t.TempDir(), 4, 0)

	path, err := fr.Record(&RoundTrace{
		Label: "epoch", Err: "boom", Epoch: 17, HasEpoch: true, Spans: goldenSpans(),
	})
	if err != nil || path == "" {
		t.Fatalf("epochal failure did not dump: %q %v", path, err)
	}
	if got := filepath.Base(path); got != "flight-e17-001-epoch.trace.json" {
		t.Fatalf("epochal dump named %q", got)
	}

	// Epoch 0 is a real epoch, not "no epoch" — HasEpoch disambiguates.
	path, err = fr.Record(&RoundTrace{Label: "epoch", Err: "boom", Epoch: 0, HasEpoch: true})
	if err != nil || filepath.Base(path) != "flight-e0-002-epoch.trace.json" {
		t.Fatalf("epoch-zero dump named %q (err %v)", filepath.Base(path), err)
	}

	path, err = fr.Record(&RoundTrace{Label: "classic", Err: "boom"})
	if err != nil || filepath.Base(path) != "flight-003-classic.trace.json" {
		t.Fatalf("classic dump named %q (err %v)", filepath.Base(path), err)
	}
}

// TestFlightRecorderForceDump pins Dump, the ops alarm path: it writes
// nothing on an empty ring, dumps the ring regardless of triggers, shares
// the sequence counter with Record, and stays nil-safe.
func TestFlightRecorderForceDump(t *testing.T) {
	dir := t.TempDir()
	fr := NewFlightRecorder(dir, 4, time.Hour)
	// An empty ring has nothing to dump: no file and no path, for the
	// caller to retry once a round is recorded.
	if path, err := fr.Dump("slo_breach", 3); err != nil || path != "" {
		t.Fatalf("empty-ring dump wrote %q (%v), want nothing", path, err)
	}
	if files, _ := filepath.Glob(filepath.Join(dir, "*")); len(files) != 0 {
		t.Fatalf("empty-ring dump left files %v", files)
	}
	if _, err := fr.Record(&RoundTrace{Label: "clean", Spans: goldenSpans()}); err != nil {
		t.Fatal(err)
	}

	path, err := fr.Dump("slo_breach", 3)
	if err != nil || path == "" {
		t.Fatalf("force dump failed: %q %v", path, err)
	}
	want := regexp.MustCompile(`^flight-e3-\d{3}-slo_breach\.trace\.json$`)
	if base := filepath.Base(path); !want.MatchString(base) {
		t.Fatalf("force dump named %q", base)
	}

	// No epoch context drops the e-tag.
	path, err = fr.Dump("anomaly", -1)
	if err != nil {
		t.Fatal(err)
	}
	if base := filepath.Base(path); regexp.MustCompile(`e-?\d`).MatchString(base) {
		t.Fatalf("epoch-free dump carries an epoch tag: %q", base)
	}

	var nilFR *FlightRecorder
	if path, err := nilFR.Dump("x", 1); err != nil || path != "" {
		t.Fatalf("nil recorder force-dumped: %q %v", path, err)
	}
}
