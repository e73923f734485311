package linalg

import "fmt"

// Matrix is a dense row-major matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix returns a zero matrix of the given shape.
func NewMatrix(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set writes element (i, j).
func (m *Matrix) Set(i, j int, x float64) { m.Data[i*m.Cols+j] = x }

// Add adds x to element (i, j).
func (m *Matrix) Add(i, j int, x float64) { m.Data[i*m.Cols+j] += x }

// Row returns row i as a slice aliasing the matrix storage.
func (m *Matrix) Row(i int) Vector { return Vector(m.Data[i*m.Cols : (i+1)*m.Cols]) }

// MulVec computes y = m·x into the provided destination, which must have
// length m.Rows. x must have length m.Cols. It returns dst.
func (m *Matrix) MulVec(x, dst Vector) Vector {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec x length %d != cols %d", len(x), m.Cols))
	}
	if len(dst) != m.Rows {
		panic(fmt.Sprintf("linalg: MulVec dst length %d != rows %d", len(dst), m.Rows))
	}
	m.mulBlocks(x, dst, 1, 0)
	return dst
}

// MulVecT computes y = mᵀ·x into dst (length m.Cols); x has length m.Rows.
func (m *Matrix) MulVecT(x, dst Vector) Vector {
	if len(x) != m.Rows {
		panic(fmt.Sprintf("linalg: MulVecT x length %d != rows %d", len(x), m.Rows))
	}
	if len(dst) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVecT dst length %d != cols %d", len(dst), m.Cols))
	}
	for j := range dst {
		dst[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		if xi == 0 {
			continue
		}
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, a := range row {
			dst[j] += a * xi
		}
	}
	return dst
}

// AtA returns mᵀ·m (a Cols×Cols symmetric matrix).
func (m *Matrix) AtA() *Matrix {
	out := NewMatrix(m.Cols, m.Cols)
	for a := 0; a < m.Cols; a++ {
		orow := out.Data[a*out.Cols : (a+1)*out.Cols]
		for i := 0; i < m.Rows; i++ {
			row := m.Data[i*m.Cols : (i+1)*m.Cols]
			ra := row[a]
			if ra == 0 {
				continue
			}
			for b := a; b < m.Cols; b++ {
				orow[b] += ra * row[b]
			}
		}
	}
	// Mirror the upper triangle.
	for a := 0; a < m.Cols; a++ {
		for b := a + 1; b < m.Cols; b++ {
			out.Data[b*out.Cols+a] = out.Data[a*out.Cols+b]
		}
	}
	return out
}

// AddDiag adds x to every diagonal element of a square matrix.
func (m *Matrix) AddDiag(x float64) {
	if m.Rows != m.Cols {
		panic("linalg: AddDiag on non-square matrix")
	}
	for i := 0; i < m.Rows; i++ {
		m.Data[i*m.Cols+i] += x
	}
}

// QuadForm returns xᵀ·m·x for a square matrix m.
func (m *Matrix) QuadForm(x Vector) float64 {
	if m.Rows != m.Cols || len(x) != m.Rows {
		panic("linalg: QuadForm shape mismatch")
	}
	var s float64
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		var ri float64
		for j, a := range row {
			ri += a * x[j]
		}
		s += x[i] * ri
	}
	return s
}
