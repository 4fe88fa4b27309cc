package harness

import (
	"strings"

	"repro/internal/core"
)

// NamedPolicy pairs a policy id with the wire name it was requested
// under — the name CLIs echo back and campaign requests carry.
type NamedPolicy struct {
	// Wire is the policy's wire name ("mosaic", "gpummu-2mb", ...).
	Wire string
	// Policy is the resolved policy id.
	Policy core.Policy
}

// ParsePolicies parses a comma-separated -policy flag value against the
// core policy table, so mosaic-sim and mosaic-sweep accept exactly the
// same names. The special value "all" expands to the four paper
// managers. Unknown names return an error wrapping core.ErrUnknownPolicy
// that lists the known names.
func ParsePolicies(s string) ([]NamedPolicy, error) {
	var out []NamedPolicy
	for _, part := range strings.Split(s, ",") {
		name := strings.TrimSpace(part)
		if name == "all" {
			for _, p := range []core.Policy{core.GPUMMU4K, core.GPUMMU2M, core.Mosaic, core.IdealTLB} {
				out = append(out, NamedPolicy{Wire: p.Wire(), Policy: p})
			}
			continue
		}
		p, err := core.ParsePolicy(name)
		if err != nil {
			return nil, err
		}
		out = append(out, NamedPolicy{Wire: name, Policy: p})
	}
	return out, nil
}
