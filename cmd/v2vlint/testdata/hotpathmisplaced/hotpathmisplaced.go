// Package hotpathmisplaced holds v2v:hotpath directives in places where
// they guard nothing: on a type and inside a function body.
package hotpathmisplaced

//v2v:hotpath
type notAFunc struct{}

func insideBody() notAFunc {
	//v2v:hotpath
	return notAFunc{}
}
