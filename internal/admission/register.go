package admission

import (
	"fmt"
	"strings"

	"videocdn/internal/core"
	"videocdn/internal/policy"
)

// innerPrefix marks params forwarded to the wrapped policy:
// "inner.q=8" configures an inner lruq's q.
const innerPrefix = "inner."

func init() {
	policy.Register(policy.Spec{
		Name:        "admit",
		Doc:         "size/frequency admission filter composed over any registered policy (inner=<name>, inner.* forwarded)",
		InnerPrefix: innerPrefix,
		Fields: []policy.Field{
			{Key: "inner", Kind: policy.KindString, Default: "lru", Doc: "registered policy to wrap"},
			{Key: "alpha", Kind: policy.KindFloat, Default: 2.0, Doc: "alpha_F2R forwarded to the inner policy when its schema accepts it"},
			{Key: "min_hits", Kind: policy.KindInt, Default: DefaultMinHits, Doc: "prior requests required per bypass-unit of fill size"},
			{Key: "small_chunks", Kind: policy.KindInt, Default: DefaultSmallChunks, Doc: "fills of at most this many chunks bypass the gate"},
			{Key: "halve_every", Kind: policy.KindInt, Default: DefaultHalveEvery, Doc: "halve frequency counts every N requests (negative disables)"},
		},
		New: func(cfg core.Config, p policy.Params) (core.Cache, error) {
			if err := core.CheckAlpha(p["alpha"].(float64)); err != nil {
				return nil, err
			}
			innerName := p["inner"].(string)
			spec, ok := policy.Lookup(innerName)
			if !ok {
				return nil, fmt.Errorf("admit: unknown inner policy %q", innerName)
			}
			if spec.NeedsTrace {
				return nil, fmt.Errorf("admit: cannot wrap offline policy %q", innerName)
			}
			innerP := policy.Params{}
			for k, v := range p {
				if strings.HasPrefix(k, innerPrefix) {
					innerP[strings.TrimPrefix(k, innerPrefix)] = v
				}
			}
			if _, set := innerP["alpha"]; !set && spec.Accepts("alpha") {
				innerP["alpha"] = p["alpha"].(float64)
			}
			inner, err := policy.New(innerName, cfg, innerP)
			if err != nil {
				return nil, err
			}
			return Wrap(inner, cfg, Config{
				MinHits:     p["min_hits"].(int),
				SmallChunks: p["small_chunks"].(int),
				HalveEvery:  p["halve_every"].(int),
			})
		},
	})
}
