package core

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"

	"dlacep/internal/pattern"
)

// smallEventNet builds an untrained (but randomly initialized) event
// network: persistence tests only need parameters, not accuracy.
func smallEventNet(t *testing.T) (*EventNetwork, []*pattern.Pattern) {
	t.Helper()
	p := pattern.MustParse("PATTERN SEQ(A a, B b) WHERE a.vol < b.vol WITHIN 6")
	pats := []*pattern.Pattern{p}
	cfg := Config{MarkSize: 12, StepSize: 6, Hidden: 4, Layers: 1, Seed: 5}
	net, err := NewEventNetwork(volSchema, pats, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return net, pats
}

// TestSaveLoadSaveByteEquality pins the canonical on-disk encoding:
// re-saving a loaded model must reproduce the original file byte for byte
// (which is also what makes the checksum scheme sound).
func TestSaveLoadSaveByteEquality(t *testing.T) {
	net, pats := smallEventNet(t)
	var first bytes.Buffer
	if err := net.Save(&first, pats); err != nil {
		t.Fatal(err)
	}
	loaded, loadedPats, _, err := LoadModel(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := loaded.(*EventNetwork).Save(&second, loadedPats); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Errorf("save->load->save is not byte-identical (%d vs %d bytes)", first.Len(), second.Len())
	}

	wnet, err := NewWindowNetwork(volSchema, pats, net.Cfg)
	if err != nil {
		t.Fatal(err)
	}
	first.Reset()
	if err := wnet.Save(&first, pats); err != nil {
		t.Fatal(err)
	}
	wloaded, wpats, _, err := LoadModel(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	second.Reset()
	if err := wloaded.(WindowToEvent).F.(*WindowNetwork).Save(&second, wpats); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Error("window network save->load->save is not byte-identical")
	}
}

// mutateModelJSON decodes a saved model into a generic map, applies fn, and
// re-encodes — simulating post-save tampering or hand edits.
func mutateModelJSON(t *testing.T, raw []byte, fn func(m map[string]any)) []byte {
	t.Helper()
	var m map[string]any
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	fn(m)
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestLoadModelIntegrity(t *testing.T) {
	net, pats := smallEventNet(t)
	var buf bytes.Buffer
	if err := net.Save(&buf, pats); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	// Pristine file loads.
	if _, _, _, err := LoadModel(bytes.NewReader(raw)); err != nil {
		t.Fatalf("pristine model rejected: %v", err)
	}

	// Tampered payload (threshold changed after save) is rejected.
	tampered := mutateModelJSON(t, raw, func(m map[string]any) { m["threshold"] = 0.42 })
	if _, _, _, err := LoadModel(bytes.NewReader(tampered)); err == nil ||
		!strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("tampered model: err = %v, want checksum mismatch", err)
	}

	// Corrupted checksum field is rejected.
	badsum := mutateModelJSON(t, raw, func(m map[string]any) {
		m["sha256"] = strings.Repeat("0", 64)
	})
	if _, _, _, err := LoadModel(bytes.NewReader(badsum)); err == nil ||
		!strings.Contains(err.Error(), "checksum mismatch") {
		t.Errorf("bad checksum: err = %v, want checksum mismatch", err)
	}

	// Future format version is rejected with a clear message.
	future := mutateModelJSON(t, raw, func(m map[string]any) { m["format"] = 99 })
	if _, _, _, err := LoadModel(bytes.NewReader(future)); err == nil ||
		!strings.Contains(err.Error(), "newer") {
		t.Errorf("future format: err = %v, want newer-version rejection", err)
	}

	// v2 file stripped of its checksum is rejected.
	nosum := mutateModelJSON(t, raw, func(m map[string]any) { delete(m, "sha256") })
	if _, _, _, err := LoadModel(bytes.NewReader(nosum)); err == nil ||
		!strings.Contains(err.Error(), "missing") {
		t.Errorf("checksum-less v2: err = %v, want missing-checksum rejection", err)
	}

	// Legacy version-less (v1) file still loads.
	legacy := mutateModelJSON(t, raw, func(m map[string]any) {
		delete(m, "format")
		delete(m, "sha256")
	})
	if _, _, _, err := LoadModel(bytes.NewReader(legacy)); err != nil {
		t.Errorf("legacy version-less model rejected: %v", err)
	}
}

func TestRestoreParamsErrors(t *testing.T) {
	net, _ := smallEventNet(t)
	params := net.Params()
	saved := saveParams(params)

	// Count mismatch names where the tensor lists diverge.
	err := restoreParams(params, saved[:len(saved)-1])
	if err == nil || !strings.Contains(err.Error(), "parameter tensors") {
		t.Errorf("count mismatch: err = %v", err)
	}

	// Name mismatch points at the swapped tensor.
	renamed := append([]savedParam(nil), saved...)
	renamed[1].Name = "bogus.weight"
	err = restoreParams(params, renamed)
	if err == nil || !strings.Contains(err.Error(), "bogus.weight") ||
		!strings.Contains(err.Error(), params[1].Name) {
		t.Errorf("name mismatch: err = %v, want both tensor names", err)
	}

	// Shape mismatch names the offending tensor and both shapes.
	reshaped := append([]savedParam(nil), saved...)
	reshaped[0].Rows++
	err = restoreParams(params, reshaped)
	if err == nil || !strings.Contains(err.Error(), params[0].Name) ||
		!strings.Contains(err.Error(), "expected shape") {
		t.Errorf("shape mismatch: err = %v, want tensor name and shapes", err)
	}

	// Declared shape inconsistent with the carried data is rejected
	// (a silent short copy would leave stale weights in place).
	short := append([]savedParam(nil), saved...)
	short[0].Data = short[0].Data[:len(short[0].Data)-1]
	err = restoreParams(params, short)
	if err == nil || !strings.Contains(err.Error(), "carries") {
		t.Errorf("short data: err = %v, want declared-vs-carried mismatch", err)
	}
}

func TestInspectModel(t *testing.T) {
	net, pats := smallEventNet(t)
	var buf bytes.Buffer
	if err := net.Save(&buf, pats); err != nil {
		t.Fatal(err)
	}
	info, err := InspectModel(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if info.Kind != "event" || info.Format != ModelFormatVersion || len(info.Checksum) != 64 {
		t.Errorf("info identity = %q v%d sha %q", info.Kind, info.Format, info.Checksum)
	}
	if len(info.Patterns) != 1 || info.Patterns[0] != pats[0].String() {
		t.Errorf("patterns = %v", info.Patterns)
	}
	params := net.Params()
	if len(info.Params) != len(params) {
		t.Fatalf("param tensors = %d, want %d", len(info.Params), len(params))
	}
	total := 0
	for i, p := range params {
		if info.Params[i].Name != p.Name || info.Params[i].Rows != p.Rows || info.Params[i].Cols != p.Cols {
			t.Errorf("param %d = %+v, want %s %dx%d", i, info.Params[i], p.Name, p.Rows, p.Cols)
		}
		total += p.Rows * p.Cols
	}
	if info.ParamCount != total {
		t.Errorf("ParamCount = %d, want %d", info.ParamCount, total)
	}

	// InspectModel applies the same integrity gate as LoadModel.
	tampered := mutateModelJSON(t, buf.Bytes(), func(m map[string]any) { m["threshold"] = 0.9 })
	if _, err := InspectModel(bytes.NewReader(tampered)); err == nil {
		t.Error("tampered model inspected without error")
	}
}

// TestLoadLegacyParallelismModel loads a v2 model saved when Config still
// carried a Parallelism worker bound (here 4). Its checksum covers the
// encoded config, so it loads only because savedConfig keeps the field;
// the value is ignored, and a fresh save encodes the config with the same
// keys in the same order, the legacy field written as 0.
func TestLoadLegacyParallelismModel(t *testing.T) {
	raw, err := os.ReadFile("testdata/model_legacy_parallelism.json")
	if err != nil {
		t.Fatal(err)
	}
	f, pats, schema, err := LoadModel(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	net, ok := f.(*EventNetwork)
	if !ok {
		t.Fatalf("loaded %T, want *EventNetwork", f)
	}
	want := Config{MarkSize: 8, StepSize: 4, Hidden: 2, Layers: 1, Seed: 3}
	if net.Cfg != want {
		t.Errorf("Cfg = %+v, want %+v", net.Cfg, want)
	}
	if len(pats) != 1 || strings.Join(schema.Names(), ",") != "vol" {
		t.Errorf("got %d patterns, schema %v", len(pats), schema.Names())
	}
	info, err := InspectModel(bytes.NewReader(raw))
	if err != nil || info.Config != want {
		t.Errorf("InspectModel: %+v, %v", info.Config, err)
	}

	var saved bytes.Buffer
	if err := net.Save(&saved, pats); err != nil {
		t.Fatal(err)
	}
	config := func(b []byte) string {
		var m struct {
			Config json.RawMessage `json:"config"`
		}
		if err := json.Unmarshal(b, &m); err != nil {
			t.Fatal(err)
		}
		return string(m.Config)
	}
	old, fresh := config(raw), config(saved.Bytes())
	if !strings.Contains(old, `"Parallelism":4`) {
		t.Fatalf("fixture config %s does not carry the legacy field", old)
	}
	if got := strings.Replace(old, `"Parallelism":4`, `"Parallelism":0`, 1); fresh != got {
		t.Errorf("fresh save encodes config as\n%s\nwant\n%s", fresh, got)
	}
}
