// Package nolint is v2vlint testdata for the suppression mechanism
// itself: every function below compares an error with ==, an errwrap
// finding, and the directive beside it decides whether that stands.
package nolint

import "io"

func SameLine(err error) bool {
	return err == io.EOF //v2v:nolint(errwrap) fixture: a trailing directive covers its own line
}

func NextLine(err error) bool {
	//v2v:nolint(errwrap) fixture: a standalone directive covers the next line
	return err == io.EOF
}

func Stacked(err error) bool {
	return err == io.EOF //v2v:nolint(hotpath,errwrap) fixture: one directive names several checks
}

func Bare(err error) bool {
	return err == io.EOF //v2v:nolint(errwrap)
}

func NoList(err error) bool {
	return err == io.EOF //v2v:nolint fixture: names no check
}

func Misspelt(err error) bool {
	return err == io.EOF //v2v:nolint(errwarp) fixture: a name that is no check silences nothing
}

func WrongCheck(err error) bool {
	//v2v:nolint(hotpath) fixture: names another check, so the finding stands
	return err == io.EOF
}
