// Package manifest records run provenance: a versioned JSON document that
// ties every artifact a simulation produced (telemetry snapshots, spans,
// transaction logs, checkpoints) back to exactly what produced it —
// the canonical hash of the settings document, the seed, the worker count,
// the schema versions of every stream format, and the SHA-256 digest of each
// output file. Sweeps write one manifest per permutation, which is the
// foundation the resumable-sweep roadmap item builds on: a point whose
// config hash and artifact digests already exist needs no re-simulation.
//
// Wall-clock fields (started_at, wall_sec) are the only non-deterministic
// content; they are omitted when unset, so manifests written with them unset
// (as the sweep does) are byte-identical across runs.
package manifest

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"

	"supersim/internal/config"
	"supersim/internal/snapshot"
	"supersim/internal/taskrun"
	"supersim/internal/telemetry"
)

// Manifest schema: Schema names the document type, Version its layout. Bump
// Version on any incompatible field change; Load rejects mismatches.
const (
	Schema  = "supersim-manifest"
	Version = 1
)

// Artifact describes one output file of a run. Path is the file's base name
// — manifests sit next to their artifacts, and relative names keep the
// document independent of where the run directory lands.
type Artifact struct {
	Role   string `json:"role"` // log | telemetry | spans | checkpoint
	Path   string `json:"path"`
	SHA256 string `json:"sha256"`
	Bytes  int64  `json:"bytes"`
}

// Manifest is one run's provenance record.
type Manifest struct {
	Schema     string `json:"schema"`
	Version    int    `json:"version"`
	ConfigHash string `json:"config_hash"` // sha256 of the canonical settings JSON
	Seed       uint64 `json:"seed"`

	// Flags are the command-line flags explicitly set on the producing
	// invocation, name to rendered value.
	Flags map[string]string `json:"flags,omitempty"`
	// Labels carry free-form provenance, e.g. a sweep point's id and its
	// variable assignments.
	Labels map[string]string `json:"labels,omitempty"`
	// SchemaVersions pins the version of every stream format the run could
	// have produced, so a reader knows up front whether it can parse the
	// artifacts.
	SchemaVersions map[string]int `json:"schema_versions"`

	SimTicks uint64 `json:"sim_ticks"`
	Events   uint64 `json:"events"`

	// StartedAt (RFC3339) and WallSec are wall-clock readings — the one
	// documented non-deterministic content. Zero values are omitted.
	StartedAt string  `json:"started_at,omitempty"`
	WallSec   float64 `json:"wall_sec,omitempty"`

	// Metrics are the run's final key numbers (latency summary, accepted
	// load, sample counts), keyed by metric name.
	Metrics map[string]float64 `json:"metrics,omitempty"`

	Artifacts []Artifact `json:"artifacts,omitempty"`
}

// HashConfig returns the canonical hash of a settings document: SHA-256 over
// its normalized JSON rendering. Settings.JSON sorts object keys, so two
// documents with the same content hash identically regardless of key order
// or the path that built them.
func HashConfig(cfg *config.Settings) string {
	sum := sha256.Sum256([]byte(cfg.JSON()))
	return hex.EncodeToString(sum[:])
}

// New creates a manifest for a run of cfg, filling the schema header, the
// config hash and seed, and the stream schema versions. The
// caller adds timings, metrics and artifacts.
func New(cfg *config.Settings) *Manifest {
	return &Manifest{
		Schema:     Schema,
		Version:    Version,
		ConfigHash: HashConfig(cfg),
		Seed:       cfg.UIntOr("simulation.seed", 1),
		SchemaVersions: map[string]int{
			"manifest": Version,
			"snapshot": snapshot.Version,
			"spans":    telemetry.SpanSchemaVersion,
			"tasks":    taskrun.JournalSchemaVersion,
		},
	}
}

// AddArtifact digests the file at path and appends it under role. The
// manifest stores the base name; call after the artifact is fully written.
func (m *Manifest) AddArtifact(role, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("manifest: artifact %s: %w", role, err)
	}
	defer f.Close()
	h := sha256.New()
	n, err := io.Copy(h, f)
	if err != nil {
		return fmt.Errorf("manifest: digesting %s artifact %s: %w", role, path, err)
	}
	m.Artifacts = append(m.Artifacts, Artifact{
		Role:   role,
		Path:   filepath.Base(path),
		SHA256: hex.EncodeToString(h.Sum(nil)),
		Bytes:  n,
	})
	return nil
}

// Write renders the manifest as indented JSON.
func (m *Manifest) Write(w io.Writer) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(data, '\n'))
	return err
}

// WriteFile writes the manifest to path.
func (m *Manifest) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := m.Write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// Load parses a manifest and validates its schema header, rejecting
// documents written by an incompatible layout up front.
func Load(r io.Reader) (*Manifest, error) {
	var m Manifest
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("manifest: %w", err)
	}
	if m.Schema != Schema {
		return nil, fmt.Errorf("manifest: not a run manifest: schema %q, want %q", m.Schema, Schema)
	}
	if m.Version != Version {
		return nil, fmt.Errorf("manifest: incompatible manifest version %d (this reader supports %d)",
			m.Version, Version)
	}
	return &m, nil
}

// LoadFile loads a manifest from a file.
func LoadFile(path string) (*Manifest, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

// VerifyArtifacts re-digests every artifact relative to dir and reports the
// first mismatch: a missing file, a size change, or a content change. A nil
// return means every artifact is byte-identical to what the run recorded.
func (m *Manifest) VerifyArtifacts(dir string) error {
	for _, a := range m.Artifacts {
		path := filepath.Join(dir, a.Path)
		f, err := os.Open(path)
		if err != nil {
			return fmt.Errorf("manifest: artifact %s (%s): %w", a.Role, a.Path, err)
		}
		h := sha256.New()
		n, err := io.Copy(h, f)
		f.Close()
		if err != nil {
			return fmt.Errorf("manifest: artifact %s (%s): %w", a.Role, a.Path, err)
		}
		if n != a.Bytes {
			return fmt.Errorf("manifest: artifact %s (%s): %d bytes, manifest records %d",
				a.Role, a.Path, n, a.Bytes)
		}
		if got := hex.EncodeToString(h.Sum(nil)); got != a.SHA256 {
			return fmt.Errorf("manifest: artifact %s (%s): content digest mismatch", a.Role, a.Path)
		}
	}
	return nil
}
