package core

import (
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"

	"dlacep/internal/embed"
	"dlacep/internal/event"
	"dlacep/internal/nn"
	"dlacep/internal/pattern"
)

// Model persistence: trained filters are serialized as JSON — the pipeline
// configuration, the monitored patterns (in the parseable text language),
// the stream schema, the embedder's normalization state, and every
// parameter tensor. Loading reconstructs the network deterministically from
// the config and overwrites its parameters, so the format stays stable as
// long as layer construction order is.
//
// Format history:
//
//	v1 (implicit) — no format or sha256 fields; still readable.
//	v2 — format + sha256 fields. The digest is SHA-256 over the canonical
//	     JSON encoding of the model with the sha256 field cleared, so any
//	     post-save mutation of the payload is detected at load time.

// ModelFormatVersion is the format written by Save. LoadModel reads this
// version and every earlier one, and rejects later ones.
const ModelFormatVersion = 2

type savedParam struct {
	Name string    `json:"name"`
	Rows int       `json:"rows"`
	Cols int       `json:"cols"`
	Data []float64 `json:"data"`
}

// savedConfig is Config as it is encoded in a model file. Parallelism is a
// legacy field: models saved while the pipeline had an in-process worker
// bound carry it, and the v2 checksum covers the encoded config, so
// dropping the field would make every such file fail its checksum on load.
// It is written as 0 and ignored on load.
type savedConfig struct {
	Config
	Parallelism int
}

type savedModel struct {
	Format    int          `json:"format,omitempty"`
	Checksum  string       `json:"sha256,omitempty"`
	Kind      string       `json:"kind"` // "event" or "window"
	Config    savedConfig  `json:"config"`
	Patterns  []string     `json:"patterns"`
	Schema    []string     `json:"schema"`
	Embedder  embed.State  `json:"embedder"`
	Threshold float64      `json:"threshold"`
	Params    []savedParam `json:"params"`
}

// digest hashes the canonical encoding of m (checksum field cleared). Save
// and load both derive the digest this way, so the comparison is
// independent of incidental file-level formatting.
func (m *savedModel) digest() (string, error) {
	cp := *m
	cp.Checksum = ""
	b, err := json.Marshal(&cp)
	if err != nil {
		return "", fmt.Errorf("core: hashing model: %w", err)
	}
	return fmt.Sprintf("%x", sha256.Sum256(b)), nil
}

// encodeModel stamps the current format version and checksum and writes m.
func encodeModel(w io.Writer, m *savedModel) error {
	m.Format = ModelFormatVersion
	d, err := m.digest()
	if err != nil {
		return err
	}
	m.Checksum = d
	return json.NewEncoder(w).Encode(m)
}

// decodeModel reads and verifies a saved model: future format versions and
// checksum mismatches are rejected; version-less (v1) files are accepted
// without an integrity check.
func decodeModel(r io.Reader) (*savedModel, error) {
	var m savedModel
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("core: decoding model: %w", err)
	}
	if m.Format > ModelFormatVersion {
		return nil, fmt.Errorf("core: model format v%d is newer than this build's v%d; rebuild or use a newer binary",
			m.Format, ModelFormatVersion)
	}
	if m.Format >= 2 && m.Checksum == "" {
		return nil, fmt.Errorf("core: model format v%d is missing its sha256 checksum", m.Format)
	}
	if m.Checksum != "" {
		got, err := m.digest()
		if err != nil {
			return nil, err
		}
		if got != m.Checksum {
			return nil, fmt.Errorf("core: model checksum mismatch: file declares sha256 %s but content hashes to %s (corrupted or tampered)",
				m.Checksum, got)
		}
	}
	return &m, nil
}

func saveParams(params []*nn.Param) []savedParam {
	out := make([]savedParam, len(params))
	for i, p := range params {
		out[i] = savedParam{Name: p.Name, Rows: p.Rows, Cols: p.Cols,
			Data: append([]float64(nil), p.Data...)}
	}
	return out
}

func restoreParams(params []*nn.Param, saved []savedParam) error {
	if len(params) != len(saved) {
		detail := ""
		for i := 0; i < min(len(params), len(saved)); i++ {
			if params[i].Name != saved[i].Name {
				detail = fmt.Sprintf("; tensors first diverge at index %d: model %q vs file %q",
					i, params[i].Name, saved[i].Name)
				break
			}
		}
		return fmt.Errorf("core: model has %d parameter tensors, file has %d (architecture or depth mismatch?)%s",
			len(params), len(saved), detail)
	}
	for i, p := range params {
		s := saved[i]
		if s.Name != "" && s.Name != p.Name {
			return fmt.Errorf("core: parameter %d: model expects tensor %q, file has %q (layer order changed?)",
				i, p.Name, s.Name)
		}
		if p.Rows != s.Rows || p.Cols != s.Cols {
			return fmt.Errorf("core: tensor %q (index %d): expected shape %dx%d, file has %dx%d",
				p.Name, i, p.Rows, p.Cols, s.Rows, s.Cols)
		}
		if len(s.Data) != s.Rows*s.Cols {
			return fmt.Errorf("core: tensor %q (index %d): file declares shape %dx%d = %d values but carries %d",
				p.Name, i, s.Rows, s.Cols, s.Rows*s.Cols, len(s.Data))
		}
		copy(p.Data, s.Data)
	}
	return nil
}

func renderPatterns(pats []*pattern.Pattern) []string {
	out := make([]string, len(pats))
	for i, p := range pats {
		out[i] = p.String()
	}
	return out
}

// Save serializes the trained event-network.
func (n *EventNetwork) Save(w io.Writer, pats []*pattern.Pattern) error {
	m := savedModel{
		Kind:      "event",
		Config:    savedConfig{Config: n.Cfg},
		Patterns:  renderPatterns(pats),
		Schema:    n.schema.Names(),
		Embedder:  n.Emb.State(),
		Threshold: n.Threshold,
		Params:    saveParams(n.Params()),
	}
	return encodeModel(w, &m)
}

// Save serializes the trained window-network.
func (n *WindowNetwork) Save(w io.Writer, pats []*pattern.Pattern) error {
	m := savedModel{
		Kind:      "window",
		Config:    savedConfig{Config: n.Cfg},
		Patterns:  renderPatterns(pats),
		Schema:    n.schema.Names(),
		Embedder:  n.Emb.State(),
		Threshold: n.Threshold,
		Params:    saveParams(n.Params()),
	}
	return encodeModel(w, &m)
}

// LoadModel deserializes a filter saved by Save, verifying the format
// version and checksum. It returns the rebuilt filter (an *EventNetwork or
// *WindowNetwork), the monitored patterns, and the schema.
func LoadModel(r io.Reader) (EventFilter, []*pattern.Pattern, *event.Schema, error) {
	mp, err := decodeModel(r)
	if err != nil {
		return nil, nil, nil, err
	}
	m := *mp
	schema := event.NewSchema(m.Schema...)
	pats := make([]*pattern.Pattern, len(m.Patterns))
	for i, src := range m.Patterns {
		p, err := pattern.Parse(src)
		if err != nil {
			return nil, nil, nil, fmt.Errorf("core: pattern %d in model: %w", i, err)
		}
		pats[i] = p
	}
	switch m.Kind {
	case "event":
		n, err := NewEventNetwork(schema, pats, m.Config.Config)
		if err != nil {
			return nil, nil, nil, err
		}
		if err := restoreParams(n.Params(), m.Params); err != nil {
			return nil, nil, nil, err
		}
		n.Emb.SetState(m.Embedder)
		n.Threshold = m.Threshold
		return n, pats, schema, nil
	case "window":
		n, err := NewWindowNetwork(schema, pats, m.Config.Config)
		if err != nil {
			return nil, nil, nil, err
		}
		if err := restoreParams(n.Params(), m.Params); err != nil {
			return nil, nil, nil, err
		}
		n.Emb.SetState(m.Embedder)
		n.Threshold = m.Threshold
		return WindowToEvent{n}, pats, schema, nil
	default:
		return nil, nil, nil, fmt.Errorf("core: unknown model kind %q", m.Kind)
	}
}

// ParamInfo is one tensor's shape entry in a ModelInfo.
type ParamInfo struct {
	Name string
	Rows int
	Cols int
}

// ModelInfo summarizes a saved model without rebuilding the network —
// what registries and inspection tools need: identity, integrity, and the
// parameter inventory.
type ModelInfo struct {
	Kind       string
	Format     int // 0 means a legacy version-less (v1) file
	Checksum   string
	Config     Config
	Patterns   []string
	Schema     []string
	Threshold  float64
	Params     []ParamInfo
	ParamCount int // total scalar parameters across all tensors
}

// InspectModel reads and verifies a saved model's metadata. Unlike
// LoadModel it does not reconstruct the network, so it works even when the
// binary's layer code has drifted from the file's architecture.
func InspectModel(r io.Reader) (ModelInfo, error) {
	m, err := decodeModel(r)
	if err != nil {
		return ModelInfo{}, err
	}
	info := ModelInfo{
		Kind:      m.Kind,
		Format:    m.Format,
		Checksum:  m.Checksum,
		Config:    m.Config.Config,
		Patterns:  append([]string(nil), m.Patterns...),
		Schema:    append([]string(nil), m.Schema...),
		Threshold: m.Threshold,
		Params:    make([]ParamInfo, len(m.Params)),
	}
	for i, p := range m.Params {
		info.Params[i] = ParamInfo{Name: p.Name, Rows: p.Rows, Cols: p.Cols}
		info.ParamCount += p.Rows * p.Cols
	}
	return info, nil
}
