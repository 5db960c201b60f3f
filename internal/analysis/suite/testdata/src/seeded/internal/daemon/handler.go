package daemon

import (
	"encoding/json"
	"io"
)

func Emit(w io.Writer, v any) {
	json.NewEncoder(w).Encode(v) // droppederr
}
