// Suppressed dropped errors; zero diagnostics must survive.
package trace

import "bufio"

func Emit(w *bufio.Writer, b []byte) error {
	//lint:ignore errcheck bufio errors are sticky and surfaced by the final Flush
	w.Write(b)
	return w.Flush()
}
