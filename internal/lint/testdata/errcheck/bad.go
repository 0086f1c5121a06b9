// Seeded dropped-error bugs in the I/O layer.
package trace

import (
	"encoding/json"
	"io"
	"os"
)

func Save(f *os.File, w io.Writer, enc *json.Encoder, r io.Reader) {
	enc.Encode(42)      // want "error returned by Encoder.Encode is discarded"
	io.Copy(w, r)       // want "error returned by Copy is discarded"
	f.Close()           // want "error returned by File.Close is discarded"
	f.Sync()            // want "error returned by File.Sync is discarded"
	os.Remove("/tmp/x") // want "error returned by Remove is discarded"
}
