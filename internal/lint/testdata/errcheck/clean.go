// Error-handling idioms the checker must not flag.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

func Checked(f *os.File, w io.Writer, enc *json.Encoder, r io.Reader) error {
	if err := enc.Encode(42); err != nil { // checked
		return err
	}
	if _, err := io.Copy(w, r); err != nil { // checked
		return err
	}
	_ = f.Close()          // explicit assignment acknowledges the drop
	defer f.Close()        // defer on read paths is the accepted idiom
	fmt.Fprintf(w, "done") // fmt is outside the checked callee set
	return nil
}
