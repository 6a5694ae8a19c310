package dataset

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"lppa/internal/geo"
)

// smallConfig keeps generation fast in unit tests.
func smallConfig() Config {
	return Config{
		Grid:     geo.Grid{Rows: 20, Cols: 20, SideMeters: 75_000},
		Channels: 12,
		Profiles: LAProfiles(),
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(smallConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(smallConfig(), 7)
	if err != nil {
		t.Fatal(err)
	}
	for ai := range a.Areas {
		for r := range a.Areas[ai].Coverage {
			qa := a.Areas[ai].Coverage[r].Quality
			qb := b.Areas[ai].Coverage[r].Quality
			for i := range qa {
				if qa[i] != qb[i] {
					t.Fatalf("area %d channel %d cell %d differs across runs", ai, r, i)
				}
			}
		}
	}
	c, err := Generate(smallConfig(), 8)
	if err != nil {
		t.Fatal(err)
	}
	same := true
outer:
	for ai := range a.Areas {
		for r := range a.Areas[ai].Coverage {
			if a.Areas[ai].Coverage[r].Available.Count() != c.Areas[ai].Coverage[r].Available.Count() {
				same = false
				break outer
			}
		}
	}
	if same {
		t.Error("different seeds produced identical availability everywhere (suspicious)")
	}
}

func TestGenerateShape(t *testing.T) {
	ds, err := Generate(smallConfig(), 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(ds.Areas) != 4 {
		t.Fatalf("areas = %d, want 4", len(ds.Areas))
	}
	for _, a := range ds.Areas {
		if a.NumChannels() != 12 {
			t.Errorf("%s: channels = %d, want 12", a.Name, a.NumChannels())
		}
		for r, cm := range a.Coverage {
			if cm.ChannelID != r {
				t.Errorf("%s channel %d: ID = %d", a.Name, r, cm.ChannelID)
			}
			if len(cm.Quality) != a.Grid.NumCells() {
				t.Errorf("%s channel %d: quality len %d", a.Name, r, len(cm.Quality))
			}
		}
	}
}

func TestAvailableSetAndQualityConsistent(t *testing.T) {
	ds, err := Generate(smallConfig(), 2)
	if err != nil {
		t.Fatal(err)
	}
	a := ds.Areas[3]
	for _, cell := range []geo.Cell{{Row: 0, Col: 0}, {Row: 10, Col: 7}, {Row: 19, Col: 19}} {
		as := a.AvailableSet(cell)
		q := a.Quality(cell)
		inAS := map[int]bool{}
		for _, r := range as {
			inAS[r] = true
		}
		for r := range q {
			if inAS[r] != (q[r] > 0) {
				t.Fatalf("%s cell %v channel %d: available=%v quality=%f",
					a.Name, cell, r, inAS[r], q[r])
			}
		}
	}
}

func TestUrbanVsRuralAvailability(t *testing.T) {
	// Rural areas must expose more available spectrum per cell on average
	// than the urban core (fringe coverage vs blanket coverage); this is
	// the terrain contrast Fig. 4(c) relies on.
	ds, err := Generate(smallConfig(), 3)
	if err != nil {
		t.Fatal(err)
	}
	avgAvail := func(a *Area) float64 {
		total := 0
		for _, cm := range a.Coverage {
			total += cm.Available.Count()
		}
		return float64(total) / float64(len(a.Coverage)*a.Grid.NumCells())
	}
	urban := avgAvail(ds.Areas[0])
	rural := avgAvail(ds.Areas[3])
	if rural <= urban {
		t.Errorf("rural availability %.3f should exceed urban %.3f", rural, urban)
	}
}

func TestGenerateValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.Channels = 0
	if _, err := Generate(cfg, 1); err == nil {
		t.Error("channels=0 accepted")
	}
	cfg = smallConfig()
	cfg.Profiles = nil
	if _, err := Generate(cfg, 1); err == nil {
		t.Error("no profiles accepted")
	}
	cfg = smallConfig()
	cfg.Grid.Rows = 0
	if _, err := Generate(cfg, 1); err == nil {
		t.Error("bad grid accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	ds, err := Generate(smallConfig(), 5)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Save(&buf, ds); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != ds.Seed || len(got.Areas) != len(ds.Areas) {
		t.Fatalf("header mismatch: seed=%d areas=%d", got.Seed, len(got.Areas))
	}
	for ai := range ds.Areas {
		want, have := ds.Areas[ai], got.Areas[ai]
		if want.Name != have.Name || want.Grid != have.Grid {
			t.Fatalf("area %d metadata mismatch", ai)
		}
		for r := range want.Coverage {
			if !want.Coverage[r].Available.Equal(have.Coverage[r].Available) {
				t.Fatalf("area %d channel %d availability mismatch", ai, r)
			}
			for i := range want.Coverage[r].Quality {
				if want.Coverage[r].Quality[i] != have.Coverage[r].Quality[i] {
					t.Fatalf("area %d channel %d quality mismatch at %d", ai, r, i)
				}
			}
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a dataset"))); err == nil {
		t.Error("garbage accepted")
	}
}

func TestLoadOrGenerateCaches(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "ds.gob")
	cfg := smallConfig()
	first, err := LoadOrGenerate(path, cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	second, err := LoadOrGenerate(path, cfg, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !first.Areas[0].Coverage[0].Available.Equal(second.Areas[0].Coverage[0].Available) {
		t.Error("cached dataset differs from generated one")
	}
	// A different seed must ignore the stale cache.
	third, err := LoadOrGenerate(path, cfg, 10)
	if err != nil {
		t.Fatal(err)
	}
	if third.Seed != 10 {
		t.Errorf("seed = %d, want 10", third.Seed)
	}
	// The stale cache is rewritten, and so is an unreadable one.
	if ds, err := loadFile(path); err != nil || ds.Seed != 10 {
		t.Errorf("stale cache not rewritten (err %v)", err)
	}
	if err := os.WriteFile(path, []byte("not a dataset"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadOrGenerate(path, cfg, 10); err != nil {
		t.Fatal(err)
	}
	if ds, err := loadFile(path); err != nil || ds.Seed != 10 {
		t.Errorf("unreadable cache not rewritten (err %v)", err)
	}
}

// loadFile reads the dataset cached at path.
func loadFile(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// TestLoadOrGenerateRejectsOtherConfig writes a cache under one config
// and loads it under others with the same seed: each load must give the
// requested shape, not the cached one, and leave the cache as it was.
func TestLoadOrGenerateRejectsOtherConfig(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ds.gob")
	if _, err := LoadOrGenerate(path, smallConfig(), 9); err != nil {
		t.Fatal(err)
	}
	grid := smallConfig()
	grid.Grid = geo.Grid{Rows: 10, Cols: 10, SideMeters: 75_000}
	channels := smallConfig()
	channels.Channels = 5
	profiles := smallConfig()
	profiles.Profiles = LAProfiles()[1:3]
	profiles.Profiles[0].TowerProb /= 2
	for name, cfg := range map[string]Config{"grid": grid, "channels": channels, "profiles": profiles} {
		ds, err := LoadOrGenerate(path, cfg, 9)
		if err != nil {
			t.Fatal(err)
		}
		if len(ds.Areas) != len(cfg.Profiles) {
			t.Errorf("%s: loaded %d areas, want %d", name, len(ds.Areas), len(cfg.Profiles))
			continue
		}
		for i, a := range ds.Areas {
			if a.Grid != cfg.Grid || a.NumChannels() != cfg.Channels || a.Profile != cfg.Profiles[i] {
				t.Errorf("%s: area %d is %v with %d channels, profile %+v", name, i, a.Grid, a.NumChannels(), a.Profile)
			}
		}
	}
	if ds, err := loadFile(path); err != nil || ds.Seed != 9 || !ds.fits(smallConfig()) {
		t.Errorf("the cache no longer holds smallConfig()'s dataset (err %v)", err)
	}
}

func TestLAProfilesShape(t *testing.T) {
	ps := LAProfiles()
	if len(ps) != 4 {
		t.Fatalf("profiles = %d, want 4", len(ps))
	}
	for _, p := range ps {
		if p.TowerProb <= 0 || p.TowerProb > 1 {
			t.Errorf("%s: tower prob %f", p.Name, p.TowerProb)
		}
		if p.PowerMinDBm >= p.PowerMaxDBm {
			t.Errorf("%s: power range [%f,%f]", p.Name, p.PowerMinDBm, p.PowerMaxDBm)
		}
		if p.MaxTowers < 1 {
			t.Errorf("%s: max towers %d", p.Name, p.MaxTowers)
		}
	}
}
