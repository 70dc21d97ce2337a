package matgen

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/sparse"
)

// ReadMatrixMarket parses a Matrix Market coordinate-format stream
// ("%%MatrixMarket matrix coordinate real {general|symmetric}") into a CSR
// matrix. Symmetric files are expanded to full storage. Repeated entries
// of one cell are summed left to right in file order. Pattern and integer
// fields are accepted (pattern entries become 1.0). Complex and array
// formats are rejected, and so is a matrix past sparse.MaxIndex rows,
// columns or entries (sparse.ErrTooLarge), before any entry is read.
func ReadMatrixMarket(r io.Reader) (*sparse.CSR, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)

	if !sc.Scan() {
		return nil, fmt.Errorf("matgen: empty Matrix Market stream")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 5 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, fmt.Errorf("matgen: bad Matrix Market header %q", sc.Text())
	}
	format, field, symmetry := header[2], header[3], header[4]
	if format != "coordinate" {
		return nil, fmt.Errorf("matgen: unsupported format %q (only coordinate)", format)
	}
	switch field {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("matgen: unsupported field %q", field)
	}
	var symmetric, skewSymmetric bool
	switch symmetry {
	case "general":
	case "symmetric":
		symmetric = true
	case "skew-symmetric":
		skewSymmetric = true
	default:
		return nil, fmt.Errorf("matgen: unsupported symmetry %q", symmetry)
	}

	// Skip comments, read the size line.
	var n, m, nnz int
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &n, &m, &nnz); err != nil {
			return nil, fmt.Errorf("matgen: bad size line %q: %w", line, err)
		}
		break
	}
	if n <= 0 || m <= 0 {
		return nil, fmt.Errorf("matgen: non-positive dimensions %dx%d", n, m)
	}
	if err := sparse.CheckSize(n, m, nnz); err != nil {
		return nil, err
	}

	tr := make([]sparse.Triplet, 0, nnz*2)
	count := 0
	for sc.Scan() && count < nnz {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("matgen: bad entry line %q", line)
		}
		i, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("matgen: bad row index %q: %w", fields[0], err)
		}
		j, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("matgen: bad col index %q: %w", fields[1], err)
		}
		v := 1.0
		if field != "pattern" {
			if len(fields) < 3 {
				return nil, fmt.Errorf("matgen: missing value in %q", line)
			}
			v, err = strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("matgen: bad value %q: %w", fields[2], err)
			}
		}
		if i < 1 || i > n || j < 1 || j > m {
			return nil, fmt.Errorf("matgen: entry (%d,%d) out of range %dx%d", i, j, n, m)
		}
		i, j = i-1, j-1
		tr = append(tr, sparse.Triplet{Row: i, Col: j, Val: v})
		if (symmetric || skewSymmetric) && i != j {
			w := v
			if skewSymmetric {
				w = -v
			}
			tr = append(tr, sparse.Triplet{Row: j, Col: i, Val: w})
		}
		count++
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if count != nnz {
		return nil, fmt.Errorf("matgen: expected %d entries, found %d", nnz, count)
	}
	// Expanded, a symmetric file holds each off-diagonal entry twice.
	if err := sparse.CheckSize(n, m, len(tr)); err != nil {
		return nil, err
	}
	return sparse.NewCSRFromTriplets(n, m, tr), nil
}

// WriteMatrixMarket writes a CSR matrix in coordinate real format. When
// symmetric is true only the lower triangle is emitted with a symmetric
// header (the caller asserts the matrix is symmetric).
func WriteMatrixMarket(w io.Writer, a *sparse.CSR, symmetric bool) error {
	bw := bufio.NewWriter(w)
	sym := "general"
	if symmetric {
		sym = "symmetric"
	}
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real %s\n", sym); err != nil {
		return err
	}
	var buf sparse.RowBuf
	nnz := 0
	for i := 0; i < a.N; i++ {
		cols, _ := a.Row(i, &buf)
		for _, j := range cols {
			if symmetric && int(j) > i {
				continue
			}
			nnz++
		}
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", a.N, a.M, nnz); err != nil {
		return err
	}
	for i := 0; i < a.N; i++ {
		cols, vals := a.Row(i, &buf)
		for k, c := range cols {
			j := int(c)
			if symmetric && j > i {
				continue
			}
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", i+1, j+1, vals[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
