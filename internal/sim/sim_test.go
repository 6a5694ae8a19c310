package sim

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"lppa/internal/dataset"
	"lppa/internal/geo"
)

// smallDataset keeps experiment tests fast: 20×20 grid, 12 channels.
func smallDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	ds, err := dataset.Generate(dataset.Config{
		Grid:     geo.Grid{Rows: 20, Cols: 20, SideMeters: 75_000},
		Channels: 12,
		Profiles: dataset.LAProfiles(),
	}, 21)
	if err != nil {
		t.Fatal(err)
	}
	return ds
}

func TestTableRender(t *testing.T) {
	tbl := &Table{Title: "demo", Columns: []string{"a", "long-column"}}
	tbl.AddRow("1", "2")
	tbl.AddRow("333", "4")
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"## demo", "a    long-column", "333"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

func TestNewScenarioValidation(t *testing.T) {
	ds := smallDataset(t)
	if _, err := NewScenario(ds.Areas[0], 0, 2); err == nil {
		t.Error("channels=0 accepted")
	}
	if _, err := NewScenario(ds.Areas[0], 99, 2); err == nil {
		t.Error("too many channels accepted")
	}
	sc, err := NewScenario(ds.Areas[0], 5, 2)
	if err != nil {
		t.Fatal(err)
	}
	if sc.Params.MaxX != 19 || sc.Params.MaxY != 19 {
		t.Errorf("coordinate domain = (%d,%d)", sc.Params.MaxX, sc.Params.MaxY)
	}
}

func TestFig4ABSmall(t *testing.T) {
	ds := smallDataset(t)
	cfg := Fig4Config{
		Victims:       12,
		ChannelCounts: []int{4, 12},
		KeepFractions: []float64{1, 0.5},
		MaxCells:      50,
		Lambda:        2,
	}
	points, err := Fig4AB(ds.Areas[3], cfg, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d, want 4", len(points))
	}
	// More channels must not enlarge the BCM possible set on average.
	var cellsAtK4, cellsAtK12 float64
	for _, p := range points {
		if p.KeepFraction == 1 {
			switch p.Channels {
			case 4:
				cellsAtK4 = p.BCM.PossibleCells
			case 12:
				cellsAtK12 = p.BCM.PossibleCells
			}
		}
		// BPM output can never exceed BCM output.
		if p.BPM.PossibleCells > p.BCM.PossibleCells+1e-9 {
			t.Errorf("k=%d keep=%.2f: BPM cells %.1f > BCM cells %.1f",
				p.Channels, p.KeepFraction, p.BPM.PossibleCells, p.BCM.PossibleCells)
		}
	}
	if cellsAtK12 > cellsAtK4 {
		t.Errorf("BCM cells grew with channels: k=4 %.1f → k=12 %.1f", cellsAtK4, cellsAtK12)
	}
	tbl := Fig4ABTable(points)
	if len(tbl.Rows) != 4 {
		t.Errorf("table rows = %d", len(tbl.Rows))
	}
}

func TestFig4CSmall(t *testing.T) {
	ds := smallDataset(t)
	points, err := Fig4C(ds, 10, 12, 50, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d, want one per area", len(points))
	}
	for _, p := range points {
		if p.BCM.Victims != 10 {
			t.Errorf("%s: victims = %d", p.Area, p.BCM.Victims)
		}
	}
	tbl := Fig4CTable(points)
	if len(tbl.Rows) != 4 {
		t.Errorf("table rows = %d", len(tbl.Rows))
	}
}

func TestFig5ADSmall(t *testing.T) {
	ds := smallDataset(t)
	cfg := Fig5Config{
		Bidders:       15,
		Channels:      8,
		ZeroReplace:   []float64{0.2, 1.0},
		KeepFractions: []float64{0.5},
		Decay:         1,
		Lambda:        2,
		RD:            3,
		CR:            4,
	}
	points, baseline, err := Fig5AD(ds.Areas[2], cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d, want 2", len(points))
	}
	if baseline.BCM.Victims != 15 || baseline.BPM.Victims != 15 {
		t.Errorf("baseline victims = %d/%d", baseline.BCM.Victims, baseline.BPM.Victims)
	}
	// The BPM baseline must narrow at least as hard as BCM.
	if baseline.BPM.PossibleCells > baseline.BCM.PossibleCells+1e-9 {
		t.Errorf("baseline BPM cells %.1f > BCM cells %.1f",
			baseline.BPM.PossibleCells, baseline.BCM.PossibleCells)
	}
	tbl := Fig5ADTable(points, baseline)
	if len(tbl.Rows) != 4 { // 2 baseline rows + 2 sweep rows
		t.Errorf("table rows = %d", len(tbl.Rows))
	}
}

func TestFig5EFSmall(t *testing.T) {
	ds := smallDataset(t)
	cfg := Fig5Config{
		Bidders:     0, // populations given explicitly
		Channels:    8,
		ZeroReplace: []float64{0.1, 1.0},
		Decay:       1,
		Lambda:      2,
		RD:          3,
		CR:          4,
	}
	points, err := Fig5EF(ds.Areas[2], cfg, []int{12}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		if p.RevenueRatio < 0 || p.RevenueRatio > 1.6 {
			t.Errorf("revenue ratio %.3f implausible", p.RevenueRatio)
		}
		if p.SatisfactionRatio < 0 || p.SatisfactionRatio > 1.6 {
			t.Errorf("satisfaction ratio %.3f implausible", p.SatisfactionRatio)
		}
	}
	tbl := Fig5EFTable(points)
	if len(tbl.Rows) != 2 {
		t.Errorf("table rows = %d", len(tbl.Rows))
	}
}

func TestTheoremsTableSmall(t *testing.T) {
	tbl, err := TheoremsTable(TheoremConfig{BMax: 100, Trials: 5000}, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 8 {
		t.Errorf("rows = %d, want 8", len(tbl.Rows))
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
}

func TestTheorem4TableSmall(t *testing.T) {
	ds := smallDataset(t)
	tbl, err := Theorem4Table(ds.Areas[2], 6, 8, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) < 6 {
		t.Errorf("rows = %d", len(tbl.Rows))
	}
}

func TestCoverageSummary(t *testing.T) {
	ds := smallDataset(t)
	sum, err := Coverage(ds.Areas[0], 0, 10)
	if err != nil {
		t.Fatal(err)
	}
	if sum.AvailableFrac < 0 || sum.AvailableFrac > 1 {
		t.Errorf("available frac = %f", sum.AvailableFrac)
	}
	if !strings.ContainsAny(sum.ASCIIMap, ".#") {
		t.Error("ASCII map empty")
	}
	if _, err := Coverage(ds.Areas[0], -1, 10); err == nil {
		t.Error("bad channel accepted")
	}
	if _, err := Coverage(ds.Areas[0], 0, 1); err == nil {
		t.Error("tiny map width accepted")
	}
}

func TestMultiRoundSmall(t *testing.T) {
	ds := smallDataset(t)
	cfg := MultiRoundConfig{
		Bidders:      10,
		Channels:     10,
		Rounds:       4,
		Keep:         0.5,
		ZeroReplace:  0.5,
		Decay:        0.95,
		Lambda:       2,
		RD:           3,
		CR:           4,
		ReliableFrac: 0.75,
	}
	points, err := MultiRound(ds.Areas[2], cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("points = %d", len(points))
	}
	for i, p := range points {
		if p.Rounds != i+1 {
			t.Errorf("point %d rounds = %d", i, p.Rounds)
		}
		if p.Linked.Victims != 10 || p.Mixed.Victims != 10 {
			t.Errorf("point %d victims = %d/%d", i, p.Linked.Victims, p.Mixed.Victims)
		}
	}
	// Linkage must help the attacker: after several rounds the linked
	// attacker's failure rate should not exceed the mixed attacker's.
	last := points[len(points)-1]
	if last.Linked.FailureRate > last.Mixed.FailureRate+1e-9 {
		t.Errorf("linked failure %.2f should be at most mixed failure %.2f after %d rounds",
			last.Linked.FailureRate, last.Mixed.FailureRate, last.Rounds)
	}
	tbl := MultiRoundTable(points)
	if len(tbl.Rows) != 4 {
		t.Errorf("table rows = %d", len(tbl.Rows))
	}
}

func TestMultiRoundValidation(t *testing.T) {
	ds := smallDataset(t)
	cfg := DefaultMultiRoundConfig()
	cfg.Rounds = 0
	if _, err := MultiRound(ds.Areas[0], cfg, 1); err == nil {
		t.Error("rounds=0 accepted")
	}
	cfg = DefaultMultiRoundConfig()
	cfg.ReliableFrac = 0
	if _, err := MultiRound(ds.Areas[0], cfg, 1); err == nil {
		t.Error("reliable frac 0 accepted")
	}
}

func TestBasicLeakSmall(t *testing.T) {
	ds := smallDataset(t)
	cfg := BasicLeakConfig{Victims: 8, Channels: 12, Keep: 0.5, MaxCells: 50, Lambda: 2}
	res, err := BasicLeak(ds.Areas[3], cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.AdvancedDistinctSizes != 1 {
		t.Errorf("advanced distinct sizes = %.1f, want 1 (padding)", res.AdvancedDistinctSizes)
	}
	if res.BasicDistinctSizes < 2 {
		t.Errorf("basic distinct sizes = %.1f, expected a visible signal", res.BasicDistinctSizes)
	}
	if res.Basic.SuccessRate <= 0 {
		t.Error("cardinality attack never succeeded against the basic scheme")
	}
	tbl := BasicLeakTable(res)
	if len(tbl.Rows) != 3 {
		t.Errorf("table rows = %d", len(tbl.Rows))
	}

	cfg.Victims = 0
	if _, err := BasicLeak(ds.Areas[3], cfg, 7); err == nil {
		t.Error("victims=0 accepted")
	}
}

func TestTableRenderCSV(t *testing.T) {
	tbl := &Table{Title: "csv demo", Columns: []string{"a", "b"}}
	tbl.AddRow("1", "x,y") // comma must be quoted
	var buf bytes.Buffer
	if err := tbl.RenderCSV(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"# csv demo", "a,b", "1,\"x,y\""} {
		if !strings.Contains(out, want) {
			t.Errorf("csv missing %q:\n%s", want, out)
		}
	}
}

func TestPricingSmall(t *testing.T) {
	ds := smallDataset(t)
	cfg := PricingConfig{
		Bidders: 10, Channels: 10, Lambda: 2, RD: 3, CR: 4,
		ZeroReplace: []float64{0, 1}, Decay: 0.95, Trials: 2,
	}
	points, err := Pricing(ds.Areas[2], cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	for _, p := range points {
		// Second price never exceeds first price on the same allocation.
		if p.SecondOfFirst.Mean > 1.001 {
			t.Errorf("1-p0=%.1f: second/first = %.3f > 1", p.ZeroReplace, p.SecondOfFirst.Mean)
		}
	}
	tbl := PricingTable(points)
	if len(tbl.Rows) != 2 {
		t.Errorf("table rows = %d", len(tbl.Rows))
	}
	cfg.Trials = 0
	if _, err := Pricing(ds.Areas[2], cfg, 5); err == nil {
		t.Error("trials=0 accepted")
	}
}

// TestFig5WorkersInvariant pins that Fig5Config.Workers is a width and
// nothing else: the instrumented round, the privacy sweep and the
// performance sweep give equal results at one worker and at two.
func TestFig5WorkersInvariant(t *testing.T) {
	ds := smallDataset(t)
	cfg := Fig5Config{
		Bidders:       40,
		Channels:      8,
		ZeroReplace:   []float64{0.5},
		KeepFractions: []float64{0.5},
		Decay:         0.95,
		Lambda:        2,
		RD:            3,
		CR:            4,
		Trials:        2,
	}
	at := func(workers int) Fig5Config {
		c := cfg
		c.Workers = workers
		return c
	}

	one, err := MetricsRound(ds.Areas[2], at(1), 5)
	if err != nil {
		t.Fatal(err)
	}
	two, err := MetricsRound(ds.Areas[2], at(2), 5)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(one.Outcome, two.Outcome) || one.Voided != two.Voided || one.SubmissionBytes != two.SubmissionBytes {
		t.Errorf("MetricsRound: workers=1 %+v (voided %d, %d B), workers=2 %+v (voided %d, %d B)",
			one.Outcome, one.Voided, one.SubmissionBytes, two.Outcome, two.Voided, two.SubmissionBytes)
	}
	if !reflect.DeepEqual(one.Auctioneer.Rankings(), two.Auctioneer.Rankings()) {
		t.Error("MetricsRound: rankings differ between one and two workers")
	}

	adOne, baseOne, err := Fig5AD(ds.Areas[2], at(1), 6)
	if err != nil {
		t.Fatal(err)
	}
	adTwo, baseTwo, err := Fig5AD(ds.Areas[2], at(2), 6)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(adOne, adTwo) || !reflect.DeepEqual(baseOne, baseTwo) {
		t.Errorf("Fig5AD: workers=1 %+v, workers=2 %+v", adOne, adTwo)
	}

	efOne, err := Fig5EF(ds.Areas[2], at(1), []int{20}, 7)
	if err != nil {
		t.Fatal(err)
	}
	efTwo, err := Fig5EF(ds.Areas[2], at(2), []int{20}, 7)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(efOne, efTwo) {
		t.Errorf("Fig5EF: workers=1 %+v, workers=2 %+v", efOne, efTwo)
	}
}
