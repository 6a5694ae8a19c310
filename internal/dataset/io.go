package dataset

import (
	"bufio"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"lppa/internal/geo"
	"lppa/internal/radio"
)

// The on-disk format stores, per channel, only the quality array: quality
// is zero exactly when the channel is unavailable, so availability bitsets
// are reconstructed on load. A version tag guards against stale caches.

const fileVersion = 1

type fileHeader struct {
	Version int
	Seed    int64
}

type fileArea struct {
	Name      string
	Profile   AreaProfile
	Grid      geo.Grid
	Channels  []radio.Channel
	Qualities [][]float64
}

// Save writes the dataset to w in a self-describing binary format.
// Generating the full LA dataset takes a few seconds; experiments cache it
// on disk between runs.
func Save(w io.Writer, ds *Dataset) error {
	bw := bufio.NewWriter(w)
	enc := gob.NewEncoder(bw)
	if err := enc.Encode(fileHeader{Version: fileVersion, Seed: ds.Seed}); err != nil {
		return fmt.Errorf("dataset: encode header: %w", err)
	}
	if err := enc.Encode(len(ds.Areas)); err != nil {
		return fmt.Errorf("dataset: encode area count: %w", err)
	}
	for _, a := range ds.Areas {
		fa := fileArea{
			Name:      a.Name,
			Profile:   a.Profile,
			Grid:      a.Grid,
			Channels:  a.Channels,
			Qualities: make([][]float64, len(a.Coverage)),
		}
		for r, cm := range a.Coverage {
			fa.Qualities[r] = cm.Quality
		}
		if err := enc.Encode(fa); err != nil {
			return fmt.Errorf("dataset: encode area %q: %w", a.Name, err)
		}
	}
	return bw.Flush()
}

// Load reads a dataset written by Save.
func Load(r io.Reader) (*Dataset, error) {
	dec := gob.NewDecoder(bufio.NewReader(r))
	var hdr fileHeader
	if err := dec.Decode(&hdr); err != nil {
		return nil, fmt.Errorf("dataset: decode header: %w", err)
	}
	if hdr.Version != fileVersion {
		return nil, fmt.Errorf("dataset: unsupported file version %d (want %d)", hdr.Version, fileVersion)
	}
	var nAreas int
	if err := dec.Decode(&nAreas); err != nil {
		return nil, fmt.Errorf("dataset: decode area count: %w", err)
	}
	if nAreas < 0 || nAreas > 1024 {
		return nil, fmt.Errorf("dataset: implausible area count %d", nAreas)
	}
	ds := &Dataset{Seed: hdr.Seed, Areas: make([]*Area, 0, nAreas)}
	for i := 0; i < nAreas; i++ {
		var fa fileArea
		if err := dec.Decode(&fa); err != nil {
			return nil, fmt.Errorf("dataset: decode area %d: %w", i, err)
		}
		if err := fa.Grid.Validate(); err != nil {
			return nil, fmt.Errorf("dataset: area %d: %w", i, err)
		}
		a := &Area{
			Name:     fa.Name,
			Profile:  fa.Profile,
			Grid:     fa.Grid,
			Channels: fa.Channels,
			Coverage: make([]*radio.CoverageMap, 0, len(fa.Qualities)),
		}
		for r, q := range fa.Qualities {
			if len(q) != fa.Grid.NumCells() {
				return nil, fmt.Errorf("dataset: area %d channel %d: %d quality cells, want %d",
					i, r, len(q), fa.Grid.NumCells())
			}
			cm := &radio.CoverageMap{
				ChannelID: r,
				Grid:      fa.Grid,
				Available: geo.NewCellSet(fa.Grid),
				Quality:   q,
			}
			for idx, qv := range q {
				if qv > 0 {
					cm.Available.Add(fa.Grid.CellAt(idx))
				}
			}
			a.Coverage = append(a.Coverage, cm)
		}
		ds.Areas = append(ds.Areas, a)
	}
	return ds, nil
}

// LoadOrGenerate returns the dataset cached at path, generating and caching
// it when absent, unreadable, or built from another seed. A readable cache
// of another shape (see fits) is left untouched and the dataset returned
// uncached, so runs of two sizes can alternate on one path. It is the
// entry point the experiment drivers use.
func LoadOrGenerate(path string, cfg Config, seed int64) (*Dataset, error) {
	if f, err := os.Open(path); err == nil {
		cached, err := Load(f)
		f.Close()
		if err == nil && !cached.fits(cfg) {
			path = "" // another config's cache: keep it
		} else if err == nil && cached.Seed == seed {
			return cached, nil
		}
		// Fall through: a stale seed or an unreadable cache is regenerated.
	}
	ds, err := Generate(cfg, seed)
	if err != nil {
		return nil, err
	}
	if path != "" {
		f, err := os.Create(path)
		if err != nil {
			return ds, nil // cache failure is not fatal
		}
		defer f.Close()
		if err := Save(f, ds); err != nil {
			os.Remove(path)
		}
	}
	return ds, nil
}

// fits reports whether ds has the shape Generate(cfg, ·) gives: one area
// per profile, in order, each on cfg's grid with cfg's channel count. The
// availability threshold is not stored, so it is not checked.
func (ds *Dataset) fits(cfg Config) bool {
	if len(ds.Areas) != len(cfg.Profiles) {
		return false
	}
	for i, a := range ds.Areas {
		if a.Grid != cfg.Grid || a.NumChannels() != cfg.Channels || a.Profile != cfg.Profiles[i] {
			return false
		}
	}
	return true
}
