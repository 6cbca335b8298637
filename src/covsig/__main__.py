"""`python -m covsig` runs the covsig command."""

from .cli import main

if __name__ == "__main__":
    main()
