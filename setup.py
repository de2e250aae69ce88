from setuptools import Extension, setup

# The compiled orbit kernel is optional: without a working C compiler the
# build skips it and pwrot runs on the pure-Python kernel.
setup(ext_modules=[Extension("pwrot._stepkernel", ["src/pwrot/_stepkernel.c"], optional=True)])
