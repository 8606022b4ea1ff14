// Package retired carries a directive naming an analyzer v2vlint no
// longer has, on a line nothing reports: it silences nothing and is
// not a finding.
package retired

// Send never blocks.
func Send() int {
	done := make(chan int, 1)
	done <- 1 //v2v:nolint(sendblock) done is buffered for this one send, which therefore never blocks
	return <-done
}
