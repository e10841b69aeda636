package policy

import (
	"encoding/json"
	"fmt"

	"odin/internal/mlp"
	"odin/internal/ou"
)

// policyJSON is the stable on-disk representation of a Policy: the grid it
// predicts over plus the full network. Offline-trained policies are
// design-time artefacts (paper §III: "created offline using known DNNs at
// the design time"), so they need a deployment format.
type policyJSON struct {
	Grid    ou.Grid         `json:"grid"`
	Network json.RawMessage `json:"network"`
}

// MarshalJSON encodes the policy (grid + all parameters).
func (p *Policy) MarshalJSON() ([]byte, error) {
	net, err := json.Marshal(p.net)
	if err != nil {
		return nil, err
	}
	return json.Marshal(policyJSON{Grid: p.grid, Network: net})
}

// UnmarshalJSON decodes a policy produced by MarshalJSON and validates that
// the network's heads match the grid's level count.
func (p *Policy) UnmarshalJSON(data []byte) error {
	var in policyJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("policy: decoding: %w", err)
	}
	if in.Grid.MinLevel < 0 || in.Grid.MaxLevel < in.Grid.MinLevel {
		return fmt.Errorf("policy: invalid grid %+v", in.Grid)
	}
	var net mlp.Network
	if err := json.Unmarshal(in.Network, &net); err != nil {
		return err
	}
	cfg := net.Config()
	if len(cfg.Heads) != 2 || cfg.Heads[0] != in.Grid.Levels() || cfg.Heads[1] != in.Grid.Levels() {
		return fmt.Errorf("policy: network heads %v do not match grid with %d levels",
			cfg.Heads, in.Grid.Levels())
	}
	if cfg.InputDim != FeatureDim {
		return fmt.Errorf("policy: network expects %d inputs, the OU policy uses %d", cfg.InputDim, FeatureDim)
	}
	p.grid = in.Grid
	p.net = &net
	// The weights were replaced wholesale: give the policy a fresh identity
	// so any memoized predictions keyed on the old (id, version) die.
	p.id = policyIDs.Add(1)
	p.version = 0
	return nil
}
