// Package errwrap is v2vlint testdata: error comparison and wrapping
// patterns, each Bad function one finding.
package errwrap

import (
	"errors"
	"fmt"
	"io"
)

var ErrSentinel = errors.New("sentinel")

func GoodIs(err error) bool     { return errors.Is(err, ErrSentinel) }
func GoodNil(err error) bool    { return err == nil }
func GoodNotNil(err error) bool { return err != nil }
func GoodWrap(err error) error  { return fmt.Errorf("op: %w", err) }

// GoodMulti: two %w verbs are fine (sentinel plus cause).
func GoodMulti(err error) error {
	return fmt.Errorf("%w: detail: %w", ErrSentinel, err)
}

// GoodNonError: non-error args may use any verb.
func GoodNonError(err error) error {
	return fmt.Errorf("op %s failed: %w", "name", err)
}

func BadEq(err error) bool {
	return err == ErrSentinel
}

func BadNeq(err error) bool {
	return err != io.EOF
}

func BadVerb(err error) error {
	return fmt.Errorf("op failed: %v", err)
}

func BadString(err error) error {
	return fmt.Errorf("op failed: %s", err)
}

func BadPositional(n int, err error) error {
	return fmt.Errorf("op %d failed: %v", n, err)
}
