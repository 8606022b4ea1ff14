// Package fixture is testdata for cmd/v2vlint: two live
// findings, one justified suppression, one bare directive.
package fixture

import (
	"fmt"
	"io"
)

// Bad compares a sentinel with ==: a live errwrap finding.
func Bad(err error) bool {
	return err == io.EOF
}

// Suppressed carries a justified nolint and stays quiet.
func Suppressed(err error) bool {
	return err == io.EOF //v2v:nolint(errwrap) fixture: demonstrating a justified suppression
}

// Bare has a reason-less directive: it must not suppress, and is a
// finding itself.
func Bare(err error) bool {
	return err == io.EOF //v2v:nolint(errwrap)
}

// Flattened formats its cause with %v: a live errwrap finding.
func Flattened(err error) error {
	return fmt.Errorf("fixture: %v", err)
}
