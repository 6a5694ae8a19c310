package audit_test

import (
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lppa/internal/core"
	"lppa/internal/dataset"
	"lppa/internal/geo"
	"lppa/internal/mask"
	"lppa/internal/obs"
	"lppa/internal/obs/audit"
	"lppa/internal/round"
)

func fixture(t *testing.T, n int, seed int64) (core.Params, *mask.KeyRing, []geo.Point, [][]uint64) {
	t.Helper()
	p := core.Params{Channels: 6, Lambda: 2, MaxX: 99, MaxY: 99, BMax: 100}
	ring, err := mask.DeriveKeyRing([]byte("audit"), p.Channels, 5, 8)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	points := make([]geo.Point, n)
	bids := make([][]uint64, n)
	for i := range points {
		points[i] = geo.Point{X: uint64(rng.Intn(100)), Y: uint64(rng.Intn(100))}
		bids[i] = make([]uint64, p.Channels)
		for r := range bids[i] {
			if rng.Intn(4) > 0 {
				bids[i][r] = uint64(rng.Intn(int(p.BMax))) + 1
			}
		}
	}
	return p, ring, points, bids
}

func testArea(t *testing.T) *dataset.Area {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Grid:     geo.Grid{Rows: 25, Cols: 25, SideMeters: 75_000},
		Channels: 16,
		Profiles: dataset.LAProfiles(),
	}, 11)
	if err != nil {
		t.Fatal(err)
	}
	return ds.Areas[3]
}

// TestRoundAuditFullAttendance pins the audit surface of a clean observed
// round: every bidder carries a positive digest count, the degree
// histogram covers the population, per-channel comparison counts are
// present, and the robust-BCM anonymity sets are non-empty.
func TestRoundAuditFullAttendance(t *testing.T) {
	const n = 12
	p, ring, pts, bids := fixture(t, n, 7)
	reg := obs.NewRegistry()
	res, err := round.Run(p, ring,
		round.Input{Points: pts, Bids: bids, Policy: core.DisguisePolicy{P0: 0.6, Decay: 0.9}, Rng: rand.New(rand.NewSource(7))},
		round.WithTelemetry(obs.Telemetry{Metrics: reg}))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := audit.Round(res, audit.Options{Area: testArea(t), Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bidders != n || rep.Channels != int(p.Channels) {
		t.Fatalf("report shape = %d bidders/%d channels, want %d/%d",
			rep.Bidders, rep.Channels, n, p.Channels)
	}
	if len(rep.PerBidder) != n {
		t.Fatalf("per-bidder entries = %d, want %d", len(rep.PerBidder), n)
	}
	total, degSum := 0, 0
	for i, b := range rep.PerBidder {
		if b.Bidder != i {
			t.Errorf("entry %d audits bidder %d, want identity mapping", i, b.Bidder)
		}
		if b.Digests <= 0 {
			t.Errorf("bidder %d: %d digests, want positive", i, b.Digests)
		}
		if b.AnonymityCells < 1 {
			t.Errorf("bidder %d: anonymity set %d cells, want >= 1", i, b.AnonymityCells)
		}
		if b.Satisfied > b.ObservedChannels {
			t.Errorf("bidder %d: satisfied %d > observed %d", i, b.Satisfied, b.ObservedChannels)
		}
		total += b.Digests
	}
	if rep.DigestsTotal != total {
		t.Errorf("DigestsTotal = %d, want %d", rep.DigestsTotal, total)
	}
	for _, c := range rep.DegreeHist {
		degSum += c
	}
	if degSum != n {
		t.Errorf("degree histogram covers %d bidders, want %d", degSum, n)
	}
	if len(rep.ComparisonsPerChannel) != int(p.Channels) {
		t.Fatalf("comparisons for %d channels, want %d", len(rep.ComparisonsPerChannel), p.Channels)
	}
	var comparisons uint64
	for _, c := range rep.ComparisonsPerChannel {
		comparisons += c
	}
	if comparisons == 0 {
		t.Error("observed round recorded zero masked comparisons")
	}
	if rep.MinAnonymityCells < 1 || rep.MeanAnonymityCells < float64(rep.MinAnonymityCells) {
		t.Errorf("anonymity summary min=%d mean=%f inconsistent",
			rep.MinAnonymityCells, rep.MeanAnonymityCells)
	}
	if s := rep.Summary(); !strings.Contains(s, "anonymity") {
		t.Errorf("summary lacks anonymity line:\n%s", s)
	}
}

// TestRoundAuditSurfaceOnly pins the Area-less mode: digest counts and
// degrees are reported, anonymity fields stay zero, and an unobserved
// round still carries one comparison count per channel.
func TestRoundAuditSurfaceOnly(t *testing.T) {
	p, ring, pts, bids := fixture(t, 8, 3)
	res, err := round.Run(p, ring,
		round.Input{Points: pts, Bids: bids, Policy: core.DisguisePolicy{P0: 1}, Rng: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := audit.Round(res, audit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.ComparisonsPerChannel) != int(p.Channels) {
		t.Errorf("unobserved round reported comparisons %v, want one per channel", rep.ComparisonsPerChannel)
	}
	if rep.MinAnonymityCells != 0 || rep.MeanAnonymityCells != 0 {
		t.Errorf("surface-only report carries anonymity summary %d/%f",
			rep.MinAnonymityCells, rep.MeanAnonymityCells)
	}
	for _, b := range rep.PerBidder {
		if b.AnonymityCells != 0 {
			t.Errorf("bidder %d: anonymity %d without an area", b.Bidder, b.AnonymityCells)
		}
	}
}

// TestRoundAuditDegradedRound pins the compacted-index mapping: the
// excluded bidder carries no entry and every kept entry is keyed by its
// original population id.
func TestRoundAuditDegradedRound(t *testing.T) {
	const n, bad = 10, 4
	p, ring, pts, bids := fixture(t, n, 9)
	pts[bad] = geo.Point{X: p.MaxX + 1, Y: 0}
	res, err := round.Run(p, ring,
		round.Input{Points: pts, Bids: bids, Policy: core.DisguisePolicy{P0: 1}, Rng: rand.New(rand.NewSource(9))},
		round.WithWorkers(2), round.WithQuorum(n-1))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Excluded) != 1 || res.Excluded[0] != bad {
		t.Fatalf("Excluded = %v, want [%d]", res.Excluded, bad)
	}
	rep, err := audit.Round(res, audit.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Bidders != n-1 || len(rep.PerBidder) != n-1 {
		t.Fatalf("audited %d/%d bidders, want %d", rep.Bidders, len(rep.PerBidder), n-1)
	}
	if len(rep.Excluded) != 1 || rep.Excluded[0] != bad {
		t.Fatalf("report Excluded = %v, want [%d]", rep.Excluded, bad)
	}
	want := 0
	for _, b := range rep.PerBidder {
		if want == bad {
			want++
		}
		if b.Bidder != want {
			t.Fatalf("per-bidder ids = %v..., want original ids skipping %d", b.Bidder, bad)
		}
		want++
	}
}

// TestRoundAuditMetricsFold pins the transport-counter folding: replay and
// reject counters land in the report summed across label sets.
func TestRoundAuditMetricsFold(t *testing.T) {
	p, ring, pts, bids := fixture(t, 6, 5)
	reg := obs.NewRegistry()
	reg.Counter("lppa_transport_replays_deduped_total", obs.L("role", "auctioneer")).Add(3)
	reg.Counter("lppa_transport_replays_deduped_total", obs.L("role", "ttp")).Add(2)
	reg.Counter("lppa_transport_frames_rejected_total", obs.L("role", "auctioneer")).Inc()
	res, err := round.Run(p, ring,
		round.Input{Points: pts, Bids: bids, Policy: core.DisguisePolicy{P0: 1}, Rng: rand.New(rand.NewSource(5))})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := audit.Round(res, audit.Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if rep.ReplaysDeduped != 5 || rep.FramesRejected != 1 {
		t.Errorf("folded counters = %d replays/%d rejects, want 5/1",
			rep.ReplaysDeduped, rep.FramesRejected)
	}
}

// TestReportWriteJSON pins the artifact format: the written file is valid
// JSON that round-trips the per-bidder table.
func TestReportWriteJSON(t *testing.T) {
	p, ring, pts, bids := fixture(t, 6, 2)
	res, err := round.Run(p, ring,
		round.Input{Points: pts, Bids: bids, Policy: core.DisguisePolicy{P0: 1}, Rng: rand.New(rand.NewSource(2))})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := audit.Round(res, audit.Options{Area: testArea(t)})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "AUDIT_ROUND.json")
	if err := rep.WriteJSON(path); err != nil {
		t.Fatal(err)
	}
	blob, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back audit.Report
	if err := json.Unmarshal(blob, &back); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if len(back.PerBidder) != len(rep.PerBidder) || back.DigestsTotal != rep.DigestsTotal {
		t.Errorf("round-trip lost data: %d/%d bidders, %d/%d digests",
			len(back.PerBidder), len(rep.PerBidder), back.DigestsTotal, rep.DigestsTotal)
	}
}

// TestRoundAuditRejectsShortArea pins the channel-count validation.
func TestRoundAuditRejectsShortArea(t *testing.T) {
	p, ring, pts, bids := fixture(t, 4, 1)
	res, err := round.Run(p, ring,
		round.Input{Points: pts, Bids: bids, Policy: core.DisguisePolicy{P0: 1}, Rng: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := dataset.Generate(dataset.Config{
		Grid:     geo.Grid{Rows: 10, Cols: 10, SideMeters: 75_000},
		Channels: 2,
		Profiles: dataset.LAProfiles(),
	}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := audit.Round(res, audit.Options{Area: ds.Areas[0]}); err == nil {
		t.Fatal("area with too few channels accepted")
	}
}
