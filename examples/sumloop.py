# A guest program for `mtjit -file`: the loop is hot enough to trace
# under the pypy kinds, and main's int is the run's checksum.
def main():
    s = 0
    i = 0
    while i < 3000:
        s = s + i % 7
        i = i + 1
    print(s)
    return s
