# Standard tableaux, contents, seminormal matrices, matrix elements, characters.

from capelli import (
    Partition,
    Permutation,
    character_element,
    dimension,
    enumerate_standard_tableaux,
    psi,
    seminormal_matrix,
)

shape = Partition.parse("2,1")
tableaux = enumerate_standard_tableaux(shape)
print(f"shape {shape}: dim = {dimension(shape)}")
for T in tableaux:
    contents = [T.content(r) for r in range(1, 4)]
    print(" ", T, "contents:", contents)

# The seminormal representation is exact: every entry is a rational number.
for text in ["(1 2)", "(2 3)", "(1 2 3)"]:
    s = Permutation.parse(text, degree=3)
    mat = seminormal_matrix(shape, s)
    print(f"rho({text}) =", mat.entries)

# Rows of the representation, summed against inverse permutations, give the
# matrix elements; the diagonal ones are idempotent up to dim/k!.
T1, T2 = tableaux
print("psi(T1,T1) =", psi(T1, T1))
print("psi(T1,T2) =", psi(T1, T2))

# Traces assemble the character, an integer combination.
chi = character_element(shape)
print("character:", chi)

# Jucys-Murphy elements act diagonally through the contents: see the
# verification harness (`capelli verify proof-steps --shape 2,1`).
