// A fixture clean under the per-package rules: deterministic, sorted,
// sentinel-correct.
package perpackage

import (
	"errors"
	"fmt"
	"io"
	"sort"
)

var ErrEmpty = errors.New("clean: empty input")

func render(w io.Writer, m map[string]int) error {
	if len(m) == 0 {
		return fmt.Errorf("render: %w", ErrEmpty)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if _, err := fmt.Fprintf(w, "%s=%d\n", k, m[k]); err != nil {
			return err
		}
	}
	return nil
}
